package snapshot

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"aide/internal/rcs"
)

// TestArchivesAreOwnerOnly: an archive holds page bodies fetched on a
// user's behalf, so every way an archive reaches disk — a check-in, a
// replica's import, a scrub repair — leaves it readable by its owner
// only.
func TestArchivesAreOwnerOnly(t *testing.T) {
	p := newReplicaPair(t, 2)
	urls := checkinN(t, p.leader.fac, 3, "mode")
	if _, _, err := p.repl.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.leader.fac.Failover = p.repl
	victim := p.leader.fac.Store().ArchivePath(urls[1])
	if err := p.leader.fac.Store().Remove(KindArchive, filepath.Base(victim)); err != nil {
		t.Fatal(err)
	}
	if rep := scrubAll(t, p.leader.fac); rep.Repaired != 1 {
		t.Fatalf("scrub = %+v, want one repair", rep)
	}
	for what, path := range map[string]string{
		"checked in": p.leader.fac.Store().ArchivePath(urls[0]),
		"imported":   p.replica.Store().ArchivePath(urls[0]),
		"repaired":   victim,
	} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s archive: %v", what, err)
		}
		if got := fi.Mode().Perm(); got != rcs.ArchiveMode {
			t.Errorf("%s archive mode = %v, want %v", what, got, rcs.ArchiveMode)
		}
	}
}
