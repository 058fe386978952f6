package fsatomic

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Errorf("content = %q, want %q", got, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: stat err = %v", err)
	}
}

func TestWriteFilePermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "secrets.json")
	if err := WriteFile(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Errorf("perm = %o, want 600", perm)
	}
}

func TestWriteFileErrorLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nosuchdir", "state.json")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
	existing := filepath.Join(dir, "keep.json")
	if err := WriteFile(existing, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failed replacement must not clobber the existing file. Simulate
	// by making the tmp path a directory so the open fails.
	if err := os.Mkdir(existing+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(existing, []byte("new"), 0o644); err == nil {
		t.Fatal("expected error when tmp path is unwritable")
	}
	os.Remove(existing + ".tmp")
	got, _ := os.ReadFile(existing)
	if string(got) != "original" {
		t.Errorf("original clobbered: %q", got)
	}
}

func TestWriteFuncFailingWriteLeavesOriginal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archive,v")
	if err := WriteFile(path, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFunc(path, 0o644, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "original" {
		t.Errorf("original clobbered: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: stat err = %v", err)
	}
}
