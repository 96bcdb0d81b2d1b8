package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json fixes everything a run must not derive at run time: the daemon
// configuration, the open-loop rate of each workload (so a faster change is
// measured at the same offered load), why each workload exists, and which
// end-to-end metric each per-layer metric is expected to move.
//
//go:embed spec.json
var specJSON []byte

type daemonSpec struct {
	Connections     int `json:"connections"`
	MaxSessions     int `json:"max_sessions"`
	Shards          int `json:"shards"`
	HeapSizeMiB     int `json:"heap_size_mib"`
	ScreenCacheSize int `json:"screen_cache_size"`
}

type workloadSpec struct {
	OpenLoopRPS float64 `json:"open_loop_rps"`
}

type spec struct {
	Daemon       daemonSpec              `json:"daemon"`
	SetupRepeats int                     `json:"setup_repeats"`
	Workloads    map[string]workloadSpec `json:"workloads"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if s.Daemon.Connections < 1 || s.Daemon.MaxSessions < s.Daemon.Connections || s.SetupRepeats < 1 {
		return nil, fmt.Errorf("spec.json: need connections >= 1, max_sessions >= connections, setup_repeats >= 1")
	}
	for name, w := range s.Workloads {
		if w.OpenLoopRPS <= 0 {
			return nil, fmt.Errorf("spec.json: workload %s: open_loop_rps must be positive", name)
		}
	}
	return &s, nil
}
