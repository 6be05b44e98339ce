// Package atomicfile replaces a file's content so that a crash or a
// failed write leaves either the old content or the new one, never a torn
// file.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to a temporary file in name's directory, gives it
// perm, fsyncs and closes it, and renames it over name. On any failure it
// removes the temporary file and leaves name as it was. Errors are
// returned as the os package reports them, so callers add their own
// prefix.
func WriteFile(name string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), name)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
