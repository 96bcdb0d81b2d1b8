//go:build !((linux || darwin) && !race)

package mem

// mapBacking returns n zeroed bytes from the Go heap. Race builds use this
// backing on every platform: the race detector only instruments addresses
// in the Go arena, so mmap'd memory would hide the scan-vs-store races that
// Mapping.scanSync exists for.
func mapBacking(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapBacking leaves the bytes to the garbage collector.
func unmapBacking([]byte) {}
