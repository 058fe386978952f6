// Package fsatomic provides crash-durable atomic file replacement: the
// write-temp-then-rename idiom every AIDE save path uses, hardened with
// an fsync of the file contents before the rename. Without the sync, a
// power loss shortly after the rename can leave the *new* name pointing
// at zero-length or partial data on journaled filesystems — the classic
// "atomic replace that wasn't". The rename itself stays the atomicity
// point; the sync makes the data durable before the name flips.
package fsatomic

import (
	"io"
	"os"
)

// WriteFile atomically replaces path with data; see WriteFunc.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFunc(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFunc atomically replaces path with whatever write streams into
// its writer: the bytes go to path+".tmp" (created with perm, before
// umask), are fsynced, and the temp file is renamed over path. On any
// error, write's included, the temporary file is removed and the
// original file (if any) is left untouched. The containing directory
// is fsynced best-effort after the rename so the new directory entry
// itself survives a crash. Concurrent writers of one path share the
// temp name, so the caller serialises them.
func WriteFunc(path string, perm os.FileMode, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(path)
	return nil
}

// syncDir fsyncs path's parent directory, ignoring errors: not every
// platform or filesystem supports opening directories for sync, and the
// rename has already succeeded.
func syncDir(path string) {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i]
		if dir == "" {
			dir = "/"
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func lastSlash(path string) int {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}
