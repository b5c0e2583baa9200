package main

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/storage"
)

// postRunSamples is how many queries are replayed and checked after the
// load stops, on the workload whose write stream changes the relation
// being read (so replies from inside the window have no fixed oracle).
const postRunSamples = 40

// oracleEval answers q with the naive reference evaluator over st.
func oracleEval(st *storage.Store, q string) (hql.Result, error) {
	e, err := hql.Parse(q)
	if err != nil {
		return hql.Result{}, err
	}
	//lint:allow sessionapi the naive evaluator is the reference the measured replies are checked against
	return hql.EvalNaive(e, st)
}

func cardinality(r hql.Result) int {
	switch {
	case r.Relation != nil:
		return r.Relation.Cardinality()
	case r.Snapshot != nil:
		return r.Snapshot.Cardinality()
	}
	return 0
}

// compare checks one reply against the expected answer, by row count
// and by rendering.
func compare(q string, rows int, text string, want hql.Result) error {
	if n := cardinality(want); rows != n {
		return fmt.Errorf("%s: %d rows, the oracle has %d", q, rows, n)
	}
	wantText := want.String()
	if text != wantText {
		i := 0
		for i < len(text) && i < len(wantText) && text[i] == wantText[i] {
			i++
		}
		return fmt.Errorf("%s: rendering differs from the oracle's at byte %d", q, i)
	}
	return nil
}

// applyGroups commits groups into rel of st, one write group each, the
// way the server's stage and commit ops do.
func applyGroups(st *storage.Store, rel string, groups [][]string) error {
	r, ok := st.Get(rel)
	if !ok {
		return fmt.Errorf("oracle has no relation %s", rel)
	}
	for _, specs := range groups {
		g := core.NewWriteGroup()
		for _, s := range specs {
			t, err := storage.ParseTuple(r.Scheme(), s)
			if err != nil {
				return err
			}
			g.InsertMerging(r, t)
		}
		if err := g.Commit(); err != nil {
			return fmt.Errorf("oracle commit: %w", err)
		}
	}
	return nil
}

func ackQuery(rel string) string {
	return fmt.Sprintf("SELECT WHEN DEPT = '%s' FROM %s", hireDept, rel)
}

// verify checks what ex serves after a load phase against the naive
// evaluator over oracle, the generated base data with the acknowledged
// groups applied in commit order:
//   - the sampled replies, or, on a workload that samples nothing in
//     the window, postRunSamples queries replayed now;
//   - that every acknowledged write is readable: the query selecting the
//     writer's tuples returns exactly them.
//
// As negative controls the acknowledged-write reply is also compared
// with two wrong answers, and both comparisons must fail: the oracle's
// answer from before the last group was applied, which has fewer rows,
// and an answer with the same rows in which one tuple of the last group
// has another salary, which renders differently. verify returns the acknowledged-write reply, for
// the restart check, and how many replies it compared.
func verify(ex executor, oracle *storage.Store, sp spec, seed int64, acked [][]string, samples []sample) (string, int, error) {
	if len(acked) == 0 {
		return "", 0, fmt.Errorf("no write group was acknowledged")
	}
	if err := applyGroups(oracle, sp.target, acked[:len(acked)-1]); err != nil {
		return "", 0, err
	}
	aq := ackQuery(sp.target)
	stale, err := oracleEval(oracle, aq)
	if err != nil {
		return "", 0, err
	}
	if err := applyGroups(oracle, sp.target, acked[len(acked)-1:]); err != nil {
		return "", 0, err
	}

	if sp.samples == 0 {
		gen := newQueryGen(seed, 100, sp.mix)
		samples = samples[:0]
		for i := 0; i < postRunSamples; i++ {
			q := gen.next()
			rows, text, err := ex.read(q, true)
			if err != nil {
				return "", 0, err
			}
			samples = append(samples, sample{q: q, rows: rows, text: text})
		}
	}
	if len(samples) == 0 {
		return "", 0, fmt.Errorf("no replies were sampled")
	}
	for _, s := range samples {
		want, err := oracleEval(oracle, s.q)
		if err != nil {
			return "", 0, err
		}
		if err := compare(s.q, s.rows, s.text, want); err != nil {
			return "", 0, err
		}
	}

	rows, text, err := ex.read(aq, true)
	if err != nil {
		return "", 0, err
	}
	if rows != groupTuples*len(acked) {
		return "", 0, fmt.Errorf("%d acknowledged tuples, %d readable", groupTuples*len(acked), rows)
	}
	want, err := oracleEval(oracle, aq)
	if err != nil {
		return "", 0, err
	}
	if err := compare(aq, rows, text, want); err != nil {
		return "", 0, err
	}
	if compare(aq, rows, text, stale) == nil {
		return "", 0, fmt.Errorf("negative control: a reply missing the last acknowledged group passed the check")
	}
	// The acknowledged groups alone answer the query as the full oracle
	// does, so the altered salary is the one difference.
	same, err := ackAnswer(oracle, sp.target, aq, acked, false)
	if err != nil {
		return "", 0, err
	}
	if err := compare(aq, rows, text, same); err != nil {
		return "", 0, fmt.Errorf("over the acknowledged groups alone: %w", err)
	}
	altered, err := ackAnswer(oracle, sp.target, aq, acked, true)
	if err != nil {
		return "", 0, err
	}
	if cardinality(altered) != rows || compare(aq, rows, text, altered) == nil {
		return "", 0, fmt.Errorf("negative control: a reply with one altered salary passed the check")
	}
	return text, len(samples), nil
}

// ackAnswer answers the acknowledged-write query aq over a store that
// holds only the acknowledged groups; the base data has no tuple the
// query selects. With alter, the first tuple of the last group gets
// another salary: the right rows, one wrong value.
func ackAnswer(oracle *storage.Store, rel, aq string, acked [][]string, alter bool) (hql.Result, error) {
	r, _ := oracle.Get(rel)
	wrong := storage.NewStore()
	wrong.Put(core.NewRelation(r.Scheme()))
	groups := slices.Clone(acked)
	if alter {
		last := slices.Clone(groups[len(groups)-1])
		last[0] = strings.Replace(last[0], "SAL = ", "SAL = 1", 1)
		groups[len(groups)-1] = last
	}
	if err := applyGroups(wrong, rel, groups); err != nil {
		return hql.Result{}, err
	}
	return oracleEval(wrong, aq)
}
