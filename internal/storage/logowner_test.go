package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// reopenClone opens a copy of a durable store directory, as a crash at
// this instant would leave it.
func reopenClone(t *testing.T, dir string) (*Store, RecoveryStats) {
	t.Helper()
	return openDurableT(t, cloneDir(t, dir))
}

// TestDurableLogOwnership pins which WAL, if any, logs a relation's
// write groups as the relation moves in and out of durable stores.
func TestDurableLogOwnership(t *testing.T) {
	t.Run("replaced relation is not logged", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		st, _ := openDurableT(t, dir)
		old := core.NewRelation(dScheme("RP"))
		st.Put(old)
		cur := core.NewRelation(dScheme("RP"))
		st.Put(cur)
		commitKV(t, []*core.Relation{old}, 1)
		commitKV(t, []*core.Relation{old}, 2)
		commitKV(t, []*core.Relation{cur}, 1)

		re, stats := reopenClone(t, dir)
		if stats.ReplayedGroups != 1 {
			t.Fatalf("replayed %d groups, want 1: the replaced relation's groups reached the WAL", stats.ReplayedGroups)
		}
		checkPrefix(t, re, "RP", 1)
	})

	t.Run("closed store logs nothing", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		st, _, err := OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := core.NewRelation(dScheme("CL"))
		st.Put(r)
		commitKV(t, []*core.Relation{r}, 1)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(dir, walFile)
		before, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		commitKV(t, []*core.Relation{r}, 2) // in memory only
		if r.Cardinality() != 2 {
			t.Fatalf("in-memory commit after Close left %d tuples, want 2", r.Cardinality())
		}
		after, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if after.Size() != before.Size() {
			t.Fatalf("closed WAL grew from %d to %d bytes", before.Size(), after.Size())
		}

		re, stats := openDurableT(t, dir)
		if stats.Recovered() {
			t.Fatalf("reopen after a clean Close recovered: %+v", stats)
		}
		checkPrefix(t, re, "CL", 1)
	})

	t.Run("two stores log only their own groups", func(t *testing.T) {
		t.Parallel()
		dirA, dirB := t.TempDir(), t.TempDir()
		stA, _ := openDurableT(t, dirA)
		stB, _ := openDurableT(t, dirB)
		a := core.NewRelation(dScheme("OA"))
		b := core.NewRelation(dScheme("OB"))
		stA.Put(a)
		stB.Put(b)
		commitKV(t, []*core.Relation{a}, 1)
		commitKV(t, []*core.Relation{b}, 1)
		commitKV(t, []*core.Relation{a}, 2)
		commitKV(t, []*core.Relation{b}, 2)
		commitKV(t, []*core.Relation{a}, 3)

		reA, statsA := reopenClone(t, dirA)
		reB, statsB := reopenClone(t, dirB)
		if statsA.ReplayedGroups != 3 || statsB.ReplayedGroups != 2 {
			t.Fatalf("replayed %d and %d groups, want 3 and 2", statsA.ReplayedGroups, statsB.ReplayedGroups)
		}
		checkPrefix(t, reA, "OA", 3)
		checkPrefix(t, reA, "OB", 0)
		checkPrefix(t, reB, "OB", 2)
		checkPrefix(t, reB, "OA", 0)
	})
}
