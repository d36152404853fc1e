package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointDirSyncFailureKeepsJournal is the regression test for the
// silent `d.Sync()` in the checkpoint's syncDir: the manifest rename is
// only a commit once the directory entry is persisted, so a directory
// fsync failure must fail the checkpoint BEFORE the journal is truncated.
// Truncating anyway would pair a checkpoint that can vanish on power loss
// with a journal that no longer holds the records to rebuild it.
func TestCheckpointDirSyncFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	g, idx := fixture(t)
	s, _, err := NewDurable(g, idx, Config{}, DurabilityConfig{
		JournalPath:   filepath.Join(dir, "edits.wal"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		// Triggers disabled: the test drives checkpoint() directly so the
		// maintenance goroutine never races it.
		CheckpointBytes:   -1,
		CheckpointBatches: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := durableBurst(t, s)

	prev := openDir
	openDir = func(dir string) (*os.File, error) {
		d, err := os.Open(dir)
		if err != nil {
			return nil, err
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		return d, nil // Sync on a closed handle fails
	}
	err = s.checkpoint()
	openDir = prev

	if err == nil {
		t.Fatal("checkpoint swallowed the directory-sync failure")
	}
	if !strings.Contains(err.Error(), "syncing checkpoint dir") {
		t.Fatalf("checkpoint error %q does not name the directory sync", err)
	}
	st := s.Stats()
	if st.JournalBatches != batches {
		t.Fatalf("journal truncated to %d batches after failed checkpoint, want %d kept", st.JournalBatches, batches)
	}
	if st.Checkpoints != 0 {
		t.Fatalf("failed checkpoint counted as committed: %d", st.Checkpoints)
	}

	// With the directory healthy again the same checkpoint commits, and
	// only then is the journal truncated.
	if err := s.checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	st = s.Stats()
	if st.Checkpoints != 1 || st.JournalBatches != 0 {
		t.Fatalf("after retry: checkpoints=%d journal_batches=%d, want 1/0", st.Checkpoints, st.JournalBatches)
	}
}
