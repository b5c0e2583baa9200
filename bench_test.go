// Package repro's root benchmark suite: one testing.B benchmark per
// experiment of DESIGN.md (E1–E12) plus the figure-level micro-benches
// (BenchmarkVLS for Figures 7/8, BenchmarkStorageCodec for Figure 9).
// `go test -bench=. -benchmem` regenerates every number behind
// EXPERIMENTS.md; cmd/hrdm-bench prints the corresponding tables.
package main

import (
	"fmt"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/hql"
	"repro/internal/lifespan"
	"repro/internal/rel"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

func personnel(n, hist, change int, seed int64) *core.Relation {
	return workload.Personnel(workload.PersonnelConfig{
		NumEmployees: n, HistoryLen: hist, ChangeEvery: change,
		ReincarnationProb: 0.3, Seed: seed,
	})
}

func deptRel(names ...string) *core.Relation {
	full := lifespan.Interval(0, 199)
	s := schema.MustNew("DEPTREL", []string{"DNAME"},
		schema.Attribute{Name: "DNAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "FLOOR", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	r := core.NewRelation(s)
	for i, n := range names {
		r.MustInsert(core.NewTupleBuilder(s, full).
			Key("DNAME", value.String_(n)).
			SetConst("FLOOR", value.Int(int64(i+1))).
			MustBuild())
	}
	return r
}

var allDepts = []string{"Toys", "Shoes", "Books", "Tools", "Music"}

// BenchmarkVLS measures vls(t,A,R) = t.l ∩ ALS(A,R) (Figures 7/8), the
// innermost primitive of every operator.
func BenchmarkVLS(b *testing.B) {
	world := personnel(100, 400, 20, 1)
	s := world.Scheme()
	tuples := world.Tuples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuples[i%len(tuples)]
		_ = t.VLS(s, "SAL")
	}
}

// BenchmarkStorageCodec measures the Figure 9 physical-level round trip.
func BenchmarkStorageCodec(b *testing.B) {
	world := personnel(200, 200, 20, 1)
	blob, err := storage.EncodeBytes(world)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.EncodeBytes(world); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := storage.DecodeBytes(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSetOps is experiment E1: the §4.1 operators across sizes.
func BenchmarkSetOps(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		world := personnel(n, 200, 20, 1)
		a, _ := core.TimesliceStatic(world, lifespan.Interval(0, 120))
		c, _ := core.TimesliceStatic(world, lifespan.Interval(80, 199))
		b.Run(fmt.Sprintf("UnionMerge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.UnionMerge(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("IntersectMerge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IntersectMerge(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DiffMerge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DiffMerge(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProject is experiment E2: π across retained attribute sets.
func BenchmarkProject(b *testing.B) {
	world := personnel(1000, 200, 20, 2)
	cases := [][]string{{"NAME", "SAL", "DEPT"}, {"NAME", "SAL"}, {"NAME"}, {"DEPT"}}
	for _, attrs := range cases {
		b.Run(fmt.Sprintf("keep=%d/dropkey=%v", len(attrs), attrs[0] != "NAME"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Project(world, attrs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelect is experiment E3: both flavors, both quantifiers,
// across history lengths.
func BenchmarkSelect(b *testing.B) {
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(35000)}
	for _, hist := range []int{100, 400, 1600} {
		world := personnel(500, hist, 20, 3)
		b.Run(fmt.Sprintf("IfExists/hist=%d", hist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectIf(world, p, core.Exists, lifespan.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("IfForAll/hist=%d", hist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectIf(world, p, core.ForAll, lifespan.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("When/hist=%d", hist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectWhen(world, p, lifespan.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeslice is experiment E4: static slices of varying width and
// the dynamic slice.
func BenchmarkTimeslice(b *testing.B) {
	world := personnel(1000, 400, 20, 4)
	for _, w := range []int{10, 50, 200, 400} {
		L := lifespan.Interval(0, chronon.Time(w-1))
		b.Run(fmt.Sprintf("Static/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TimesliceStatic(world, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	stock := workload.Stock(workload.StockConfig{NumStocks: 500, HistoryLen: 400, VolumeGapLo: 0.4, VolumeGapHi: 0.7, Seed: 4})
	b.Run("Dynamic/EX_DIV", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TimesliceDynamic(stock, "EX_DIV"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUnionVsMergeUnion is experiment E5 / Figure 11.
func BenchmarkUnionVsMergeUnion(b *testing.B) {
	world := personnel(1000, 200, 20, 5)
	a, _ := core.TimesliceStatic(world, lifespan.Interval(0, 120))
	c, _ := core.TimesliceStatic(world, lifespan.Interval(80, 199))
	disjointA, _ := core.TimesliceStatic(world, lifespan.Interval(0, 99))
	empty := core.NewRelation(world.Scheme())
	b.Run("PlainUnionDisjoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Union(disjointA, empty); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MergeUnionOverlapping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UnionMerge(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoins is experiment E6: the §4.6 join family across sizes.
func BenchmarkJoins(b *testing.B) {
	dept := deptRel(allDepts...)
	for _, n := range []int{100, 400} {
		emp := personnel(n, 200, 20, 6)
		b.Run(fmt.Sprintf("EquiJoin/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.EquiJoin(emp, dept, "DEPT", "DNAME"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ThetaJoinGT/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ThetaJoin(emp, dept, "SAL", value.GT, "FLOOR"); err != nil {
					b.Fatal(err)
				}
			}
		})
		mgr := mgrRel(n)
		b.Run(fmt.Sprintf("NaturalJoin/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NaturalJoin(emp, mgr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mgrRel(n int) *core.Relation {
	full := lifespan.Interval(0, 199)
	s := schema.MustNew("MGR", []string{"NAME"},
		schema.Attribute{Name: "NAME", Domain: value.Strings, Lifespan: full},
		schema.Attribute{Name: "BONUS", Domain: value.Ints, Lifespan: full, Interp: "step"},
	)
	r := core.NewRelation(s)
	for i := 0; i < n; i += 5 {
		r.MustInsert(core.NewTupleBuilder(s, lifespan.Interval(0, 150)).
			Key("NAME", value.String_(fmt.Sprintf("emp%04d", i))).
			Set("BONUS", 0, 150, value.Int(int64(100*i))).
			MustBuild())
	}
	return r
}

// BenchmarkTimeJoin is experiment E7.
func BenchmarkTimeJoin(b *testing.B) {
	dept := deptRel(allDepts...)
	for _, n := range []int{100, 400} {
		stock := workload.Stock(workload.StockConfig{NumStocks: n, HistoryLen: 200, VolumeGapLo: 0.4, VolumeGapHi: 0.7, Seed: 7})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TimeJoin(stock, dept, "EX_DIV"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWhen is experiment E8: Ω and the Ω∘σ-WHEN∘T pipeline.
func BenchmarkWhen(b *testing.B) {
	world := personnel(1000, 200, 20, 8)
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}
	b.Run("When", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.When(world)
		}
	})
	b.Run("Pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := core.SelectWhen(world, p, lifespan.All())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TimesliceStatic(world, core.When(sel)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotReducibility is experiment E9: classical ops vs HRDM
// ops on {now}-lifted relations.
func BenchmarkSnapshotReducibility(b *testing.B) {
	sr, hr := liftedPair(1000)
	pred := core.Predicate{Attr: "A", Theta: value.GE, Const: value.Int(500)}
	b.Run("ClassicalSelect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Select(sr, "A", value.GE, value.Int(500), ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HRDMSelectAtNow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectWhen(hr, pred, lifespan.All()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ClassicalProject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rel.Project(sr, "A"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HRDMProjectAtNow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Project(hr, "A"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func liftedPair(n int) (*rel.Relation, *core.Relation) {
	rs, err := rel.NewScheme("R", []string{"K"}, []string{"K", "A"},
		[]value.Domain{value.Ints, value.Ints})
	if err != nil {
		panic(err)
	}
	at := lifespan.Point(0)
	hs := schema.MustNew("R", []string{"K", "A"},
		schema.Attribute{Name: "K", Domain: value.Ints, Lifespan: at},
		schema.Attribute{Name: "A", Domain: value.Ints, Lifespan: at},
	)
	sr := rel.NewRelation(rs)
	hr := core.NewRelation(hs)
	for i := 0; i < n; i++ {
		k, a := value.Int(int64(i)), value.Int(int64((i*7919)%1000))
		sr.MustInsert(rel.Tuple{k, a})
		hr.MustInsert(core.NewTupleBuilder(hs, at).Key("K", k).Key("A", a).MustBuild())
	}
	return sr, hr
}

// BenchmarkStorageFootprint is experiment E10: bytes per representation
// (reported via b.ReportMetric; time measures the conversion itself).
func BenchmarkStorageFootprint(b *testing.B) {
	cases := []struct {
		name  string
		world *core.Relation
		hist  int
	}{
		{"narrow", personnel(200, 400, 20, 10), 400},
		{"wide8", workload.Wide(workload.WideConfig{NumObjects: 100, HistoryLen: 400, NumAttrs: 8, BaseChange: 5, Seed: 21}), 400},
	}
	for _, c := range cases {
		b.Run(c.name+"/HRDM", func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				bytes = storage.SizeBytes(c.world)
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
		b.Run(c.name+"/TupleStamp", func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				ts, err := workload.ToTupleStamp(c.world)
				if err != nil {
					b.Fatal(err)
				}
				bytes = ts.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
		b.Run(c.name+"/Cube", func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				cb, err := workload.ToCube(c.world, chronon.NewInterval(0, chronon.Time(c.hist-1)))
				if err != nil {
					b.Fatal(err)
				}
				bytes = cb.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkRepresentationQueries is experiment E11: the three motivating
// queries on the three representations.
func BenchmarkRepresentationQueries(b *testing.B) {
	hist := 400
	world := personnel(500, hist, 20, 11)
	ts, err := workload.ToTupleStamp(world)
	if err != nil {
		b.Fatal(err)
	}
	cb, err := workload.ToCube(world, chronon.NewInterval(0, chronon.Time(hist-1)))
	if err != nil {
		b.Fatal(err)
	}
	probe := value.String_("emp0042")
	at := chronon.Time(hist / 2)
	pred := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}

	b.Run("KeyHistory/HRDM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := world.Lookup(probe.String()); !ok {
				b.Fatal("probe missing")
			}
		}
	})
	b.Run("KeyHistory/TupleStamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ts.KeyHistory(probe) == nil {
				b.Fatal("probe missing")
			}
		}
	})
	b.Run("KeyHistory/Cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cb.KeyHistory(probe) == nil {
				b.Fatal("probe missing")
			}
		}
	})
	b.Run("Snapshot/HRDM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Snapshot(world, at); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Snapshot/TupleStamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ts.SnapshotAt(at)
		}
	})
	b.Run("Snapshot/Cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cb.SnapshotAt(at)
		}
	})
	b.Run("WhenPred/HRDM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := core.SelectWhen(world, pred, lifespan.All())
			if err != nil {
				b.Fatal(err)
			}
			_ = core.When(sel)
		}
	})
	b.Run("WhenPred/TupleStamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ts.When("SAL", value.GE, value.Int(40000)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WhenPred/Cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cb.When("SAL", value.GE, value.Int(40000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgebraicLaws is experiment E12: both sides of the §5
// rewrites.
func BenchmarkAlgebraicLaws(b *testing.B) {
	world := personnel(1000, 200, 20, 12)
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(40000)}
	L := lifespan.Interval(50, 149)
	b.Run("SelectThenSlice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := core.SelectWhen(world, p, lifespan.All())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TimesliceStatic(s, L); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SliceThenSelect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := core.TimesliceStatic(world, L)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.SelectWhen(s, p, lifespan.All()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCoalescing ablates the interval-coalesced
// representation level: the same 200-chronon history is generated with a
// value change every 1 chronon (steps ≈ chronons — the degenerate
// pointwise representation) versus every 50 chronons (a handful of steps
// per tuple). Operator cost must track steps, not chronons; the gap
// between the two rows is what the representation level buys.
func BenchmarkAblationCoalescing(b *testing.B) {
	p := core.Predicate{Attr: "SAL", Theta: value.GE, Const: value.Int(35000)}
	for _, change := range []int{1, 50} {
		world := personnel(500, 200, change, 13)
		steps := core.CoalesceValueLifespans(world)["SAL"]
		b.Run(fmt.Sprintf("changeEvery=%d/steps=%d", change, steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectWhen(world, p, lifespan.All()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOuterVsInnerJoin compares the §5 union-lifespan (outer) join
// against the intersection (inner) join — the null-handling tradeoff the
// paper's closing discussion weighs.
func BenchmarkOuterVsInnerJoin(b *testing.B) {
	emp := personnel(400, 200, 20, 14)
	dept := deptRel(allDepts...)
	b.Run("Inner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EquiJoin(emp, dept, "DEPT", "DNAME"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Outer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EquiJoinOuter(emp, dept, "DEPT", "DNAME"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaterialize measures the Figure 9 representation→model lift.
func BenchmarkMaterialize(b *testing.B) {
	world := personnel(500, 200, 20, 15)
	for i := 0; i < b.N; i++ {
		if _, err := core.Materialize(world); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizer measures the law-based plan rewrites of
// internal/hql: the same query evaluated by the naive reference
// evaluator as written vs optimized (σ pushdown below ∪o plus
// slice-before-select).
func BenchmarkOptimizer(b *testing.B) {
	world := personnel(800, 200, 20, 16)
	st := storage.NewStore()
	st.Put(world)
	q := `TIMESLICE (SELECT WHEN SAL >= 40000 FROM ((TIMESLICE EMP AT {[0,120]}) UNIONMERGE (TIMESLICE EMP AT {[80,199]}))) AT {[0,50]}`
	run := func(b *testing.B, optimize bool) {
		for i := 0; i < b.N; i++ {
			e, err := hql.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			if optimize {
				e, _ = hql.Optimize(e)
			}
			if _, err := hql.EvalNaive(e, st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("AsWritten", func(b *testing.B) { run(b, false) })
	b.Run("Optimized", func(b *testing.B) { run(b, true) })
}
