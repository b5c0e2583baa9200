package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/lifespan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// The base data every workload starts from: a sparse personnel history,
// many short employments scattered over a long clock, so a narrow time
// window selects few objects and a wide one selects thousands.
const (
	empTuples = 50000
	clockLen  = 100000
	maxTenure = 40

	// Every write group stages groupTuples new hires.
	groupTuples = 4

	// hireDept marks every tuple the writer commits, so one query reads
	// back exactly the acknowledged writes.
	hireDept = "Onboard"
)

var departments = []string{"Toys", "Shoes", "Books", "Tools", "Music"}

// genStore builds the seeded base store: EMP plus the empty HIRES
// relation the read workloads' commit probe commits into.
func genStore(seed int64) *storage.Store {
	emp := workload.Personnel(workload.PersonnelConfig{
		NumEmployees: empTuples, HistoryLen: clockLen, ChangeEvery: 25,
		ReincarnationProb: 0.2, MaxTenure: maxTenure, Seed: seed,
	})
	full := lifespan.Interval(0, clockLen-1)
	hires := schema.MustNew("HIRES", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "SAL", Domain: value.Ints, Lifespan: full, Interp: "step"},
		schema.Attribute{Name: "DEPT", Domain: value.Strings, Lifespan: full, Interp: "step"},
	)
	st := storage.NewStore()
	st.Put(emp)
	st.Put(core.NewRelation(hires))
	return st
}

type readMix int

const (
	// pointMix: key lookups with Zipf-distributed keys, 5-chronon
	// time slices and 20-chronon DURING selects; 0–20 rows per reply.
	pointMix readMix = iota
	// rangeMix: department selects over 200–2000-chronon DURING windows,
	// time slices over 100–1000-chronon windows, and salary selects over
	// 9000–10000-chronon DURING windows, whose 4500 or more candidates
	// engage the parallel executor; hundreds to a thousand rows per reply.
	rangeMix
)

// queryGen is one role's seeded query stream. The same (seed, role)
// yields the same queries, served or in process.
type queryGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	mix  readMix
}

func newQueryGen(seed int64, role int, mix readMix) *queryGen {
	// The Zipf rank → employee mapping depends on the seed alone, so all
	// roles share one set of hot keys, scattered over the key space.
	perm := rand.New(rand.NewSource(seed)).Perm(empTuples)
	rng := rand.New(rand.NewSource(seed*1009 + int64(role) + 1))
	return &queryGen{
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, empTuples-1),
		perm: perm,
		mix:  mix,
	}
}

func (g *queryGen) next() string {
	r := g.rng
	if g.mix == rangeMix {
		switch x := r.Intn(5); {
		case x < 2:
			w := 200 + r.Intn(1801)
			lo := r.Intn(clockLen - w)
			return fmt.Sprintf("SELECT WHEN DEPT = '%s' DURING {[%d,%d]} FROM EMP",
				departments[r.Intn(len(departments))], lo, lo+w-1)
		case x < 4:
			w := 100 + r.Intn(901)
			lo := r.Intn(clockLen - w)
			return fmt.Sprintf("TIMESLICE EMP AT {[%d,%d]}", lo, lo+w-1)
		default:
			w := 9000 + r.Intn(1001)
			lo := r.Intn(clockLen - w)
			return fmt.Sprintf("SELECT WHEN SAL > 45000 DURING {[%d,%d]} FROM EMP", lo, lo+w-1)
		}
	}
	switch x := r.Intn(10); {
	case x < 6:
		return fmt.Sprintf("SELECT WHEN NAME = 'emp%04d' FROM EMP", g.perm[g.zipf.Uint64()])
	case x < 8:
		lo := r.Intn(clockLen - 5)
		return fmt.Sprintf("TIMESLICE EMP AT {[%d,%d]}", lo, lo+4)
	default:
		lo := r.Intn(clockLen - 20)
		return fmt.Sprintf("SELECT WHEN SAL > 30000 DURING {[%d,%d]} FROM EMP", lo, lo+19)
	}
}

// groupGen is the writer's seeded stream of new-hire groups, in the
// tuple-spec format the server's stage op takes.
type groupGen struct {
	rng *rand.Rand
	seq int
}

func newGroupGen(seed int64) *groupGen {
	return &groupGen{rng: rand.New(rand.NewSource(seed*7919 + 3))}
}

func (g *groupGen) next() []string {
	specs := make([]string, groupTuples)
	for i := range specs {
		lo := g.rng.Intn(clockLen - maxTenure)
		hi := lo + 4 + g.rng.Intn(maxTenure-4)
		ls := fmt.Sprintf("{[%d,%d]}", lo, hi)
		specs[i] = fmt.Sprintf(`tuple %s; NAME = "hire%07d" @ %s; SAL = %d @ %s; DEPT = %q @ %s`,
			ls, g.seq, ls, 30000+1000*g.rng.Intn(10), ls, hireDept, ls)
		g.seq++
	}
	return specs
}
