package atomicfile

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// listing returns the names in dir, sorted.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileReplacesContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o640); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new" {
		t.Fatalf("read back %q, %v; want \"new\"", got, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o640 {
		t.Fatalf("mode %v, want 0640", st.Mode().Perm())
	}
	if names := listing(t, dir); !slices.Equal(names, []string{"state.json"}) {
		t.Fatalf("directory holds %v, want only state.json", names)
	}
}

func TestWriteFileFailureKeepsOldFileAndLeavesNoTemp(t *testing.T) {
	// A write that cannot land returns an error, leaves the file already
	// in place untouched, and removes its temporary file.
	for _, tc := range []struct {
		name   string
		target func(dir string) string
	}{
		{"missing directory", func(dir string) string {
			return filepath.Join(dir, "missing", "state.json")
		}},
		{"rename onto a directory", func(dir string) string {
			sub := filepath.Join(dir, "sub")
			if err := os.MkdirAll(filepath.Join(sub, "child"), 0o755); err != nil {
				t.Fatal(err)
			}
			return sub
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := filepath.Join(dir, "state.json")
			if err := os.WriteFile(old, []byte("old"), 0o600); err != nil {
				t.Fatal(err)
			}
			target := tc.target(dir)
			before := listing(t, dir)
			if err := WriteFile(target, []byte("new"), 0o600); err == nil {
				t.Fatal("write succeeded")
			}
			if got, err := os.ReadFile(old); err != nil || string(got) != "old" {
				t.Fatalf("old file reads %q, %v; want \"old\"", got, err)
			}
			if after := listing(t, dir); !slices.Equal(after, before) {
				t.Fatalf("directory holds %v after the failed write, want %v", after, before)
			}
			if st, err := os.Stat(target); err == nil && !st.IsDir() {
				t.Fatalf("failed write left a file at %s", target)
			}
		})
	}
}
