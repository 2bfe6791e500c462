//go:build !linux

package wal

import (
	"errors"
	"os"
)

// Allocate reserves nothing off Linux: the active segment's reservation stays
// empty, so every flush extends the file and syncs with Sync.
func (f osFile) Allocate(off, n int64) error { return errors.ErrUnsupported }

// Datasync is Sync: no portable fdatasync.
func (f osFile) Datasync() error { return f.Sync() }

// syncDir is best effort off Linux: not every platform can sync a directory
// (Windows cannot open one for it).
func syncDir(dir string) error {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
