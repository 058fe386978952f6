// Package faultfs is a disk-fault injection seam for the snapshot
// store's file operations. Real archives at production scale see every
// failure a disk can produce: ENOSPC mid-write, EIO on a dying sector,
// torn writes after a crash, and silent bit rot that leaves size and
// mtime intact. The durability layer (checksum scrub, failover reads,
// quarantine-and-repair) exists to survive those, so its tests need a
// way to produce them on demand — deterministically, the same way
// websim's chaos profile makes network faults reproducible.
//
// An Injector wraps the basic file operations the facility's durability
// paths use (read, atomic write, rename). A nil *Injector is the
// passthrough: every method works on a nil receiver and performs the
// real operation, so production code carries the seam at zero cost.
// With a Profile installed, a seeded source decides per-operation
// whether to inject:
//
//	EIO on reads        — the read fails with syscall.EIO.
//	Bit flips on reads  — the read "succeeds" but one bit is wrong,
//	                      modelling rot between media and memory.
//	ENOSPC on writes    — the write fails with syscall.ENOSPC and
//	                      leaves the original file untouched (the
//	                      fsatomic contract).
//	Torn writes         — only a prefix of the data reaches the final
//	                      name, modelling a crash mid-replace on a
//	                      filesystem without the rename guarantee.
//
// The package also exports direct-damage helpers (FlipBit, Truncate)
// for tests that want to corrupt a specific file in place — preserving
// size and mtime, the signature of bit rot that defeats stat-based
// validation and forces a full-content checksum scrub to notice.
package faultfs

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"aide/internal/fsatomic"
)

// Profile specifies the fault mix. All probabilities are in [0,1] and
// are drawn from the profile's seeded source, so a fixed operation
// sequence sees the same faults on every run.
type Profile struct {
	// Seed seeds the fault source; the same seed and operation order
	// reproduce the same fault sequence exactly.
	Seed int64
	// ReadErrProb is the probability a ReadFile fails with EIO.
	ReadErrProb float64
	// BitFlipProb is the probability a ReadFile returns data with one
	// bit flipped (position drawn from the same seeded source).
	BitFlipProb float64
	// WriteErrProb is the probability a WriteFile fails with ENOSPC
	// before touching the destination.
	WriteErrProb float64
	// TornWriteProb is the probability a WriteFile persists only a
	// prefix of the data (at least one byte, less than all of it).
	TornWriteProb float64
	// PathSubstr, when non-empty, restricts injection to paths
	// containing the substring; other paths pass through untouched.
	PathSubstr string
}

// Injector applies a fault Profile to file operations. The zero value
// and the nil pointer are both passthroughs. Safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	profile Profile
	rng     *rand.Rand

	reads, writes, injected int64
}

// New returns an injector applying the given profile.
func New(p Profile) *Injector {
	return &Injector{profile: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Injected reports how many operations had a fault injected.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// roll draws one fault decision for path. kind selects the probability
// pair; it returns the chosen fault ("" = none) plus a positional draw
// for bit flips and torn writes.
func (in *Injector) roll(path string, kinds []string, probs []float64) (fault string, pos float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(in.profile.Seed))
	}
	if in.profile.PathSubstr != "" && !strings.Contains(path, in.profile.PathSubstr) {
		return "", 0
	}
	// Always burn the same number of draws per operation so the fault
	// sequence depends only on operation order, not on prior outcomes.
	p := in.rng.Float64()
	pos = in.rng.Float64()
	acc := 0.0
	for i, kind := range kinds {
		acc += probs[i]
		if p < acc {
			in.injected++
			return kind, pos
		}
	}
	return "", pos
}

// ReadFile reads path, subject to EIO and bit-flip injection.
func (in *Injector) ReadFile(path string) ([]byte, error) {
	if in == nil {
		return os.ReadFile(path)
	}
	in.mu.Lock()
	in.reads++
	pr := in.profile
	in.mu.Unlock()
	fault, pos := in.roll(path, []string{"eio", "bitflip"}, []float64{pr.ReadErrProb, pr.BitFlipProb})
	if fault == "eio" {
		return nil, &os.PathError{Op: "read", Path: path, Err: syscall.EIO}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if fault == "bitflip" && len(data) > 0 {
		flipped := make([]byte, len(data))
		copy(flipped, data)
		bit := int(pos * float64(len(flipped)*8))
		if bit >= len(flipped)*8 {
			bit = len(flipped)*8 - 1
		}
		flipped[bit/8] ^= 1 << (bit % 8)
		return flipped, nil
	}
	return data, nil
}

// WriteFile atomically replaces path with data (via fsatomic), subject
// to ENOSPC and torn-write injection. An injected ENOSPC leaves the
// original file untouched; an injected torn write persists a strict
// prefix — the crash the scrub layer must detect.
func (in *Injector) WriteFile(path string, data []byte, perm os.FileMode) error {
	if in == nil {
		return fsatomic.WriteFile(path, data, perm)
	}
	in.mu.Lock()
	in.writes++
	pr := in.profile
	in.mu.Unlock()
	fault, pos := in.roll(path, []string{"enospc", "torn"}, []float64{pr.WriteErrProb, pr.TornWriteProb})
	switch fault {
	case "enospc":
		return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	case "torn":
		if len(data) > 1 {
			keep := 1 + int(pos*float64(len(data)-1))
			if keep >= len(data) {
				keep = len(data) - 1
			}
			data = data[:keep]
		}
	}
	return fsatomic.WriteFile(path, data, perm)
}

// Rename renames oldpath to newpath (no injection: rename is the
// atomicity point the durability layer itself relies on; simulating a
// lost rename is the torn-write fault above).
func (in *Injector) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}

// --- direct damage helpers (tests) ---------------------------------------------

// FlipBit flips one bit of the file at path in place, preserving the
// file's size and restoring its mtime — classic silent bit rot, which
// stat-based validation (size+mtime) cannot see.
func FlipBit(path string, bitOffset int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() == 0 {
		return fmt.Errorf("faultfs: cannot flip a bit in empty %s", path)
	}
	bit := bitOffset % (fi.Size() * 8)
	if bit < 0 {
		bit += fi.Size() * 8
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, bit/8); err != nil {
		return err
	}
	buf[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(buf, bit/8); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Restore the mtime so the rot is invisible to stat.
	return os.Chtimes(path, time.Time{}, fi.ModTime())
}

// Truncate cuts the file at path to n bytes in place, restoring its
// mtime — the torn write discovered only after the fact.
func Truncate(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, n); err != nil {
		return err
	}
	return os.Chtimes(path, time.Time{}, fi.ModTime())
}
