package analysis

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestProgramDigestGolden pins the program digests of the example programs.
// The digest binds elision proofs to the program they were compiled from, so
// its byte stream is a format: a change to how programDigest renders or
// hashes the program must show up here, not as silently different digests.
func TestProgramDigestGolden(t *testing.T) {
	golden := map[string]string{
		"loop_fill.json":    "a636a66e1847ba11090ea995e3594361e30fba7e6b0af9f6b37f37f71bc89c20",
		"pure_managed.json": "e3fb0f582ab83cd3d189366c0324f686af813bec9605adfe4f2cea1d30f50324",
		"safe_sum.json":     "873849bf0a092c0e40c1d51c892d54a07132ac16d7dc13e7e8adf225aecd7243",
	}
	files, err := filepath.Glob("../../examples/lint/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(golden) {
		t.Fatalf("found %d example programs, golden table has %d", len(files), len(golden))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseProgram(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		d := programDigest(p)
		if got, want := hex.EncodeToString(d[:]), golden[filepath.Base(f)]; got != want {
			t.Errorf("%s: digest %s, want %s", filepath.Base(f), got, want)
		}
	}
}
