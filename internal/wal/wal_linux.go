//go:build linux

package wal

import (
	"os"
	"syscall"
)

// Allocate reserves [off, off+n) with fallocate(2), mode 0: the blocks are
// allocated and the file's size grows to cover them, so a later write inside
// the range changes no size and an fdatasync of it needs no journal commit
// for the size.
func (f osFile) Allocate(off, n int64) error {
	return f.control("fallocate", func(fd int) error { return syscall.Fallocate(fd, 0, off, n) })
}

// Datasync flushes the file's data, and only the metadata needed to read it
// back, with fdatasync(2).
func (f osFile) Datasync() error {
	return f.control("fdatasync", syscall.Fdatasync)
}

// control runs op on the file's descriptor, retrying on EINTR.
func (f osFile) control(name string, op func(fd int) error) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var opErr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if opErr = op(int(fd)); opErr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if opErr != nil {
		return &os.PathError{Op: name, Path: f.Name(), Err: opErr}
	}
	return nil
}

// syncDir makes dir's entries durable: a freshly created segment, a renamed
// snapshot. POSIX requires it before a new file's contents count as durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
