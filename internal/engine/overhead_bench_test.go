package engine

import (
	"context"
	"testing"
)

// BenchmarkRunCachedKeyEq times the cached-plan Session.Query path end
// to end with the optimizer off — the served hot path the
// observability layer must not tax by more than ~3%.
func BenchmarkRunCachedKeyEq(b *testing.B) {
	sess := OpenDB(goldenStore(b)).NewSession()
	ctx := context.Background()
	q := `SELECT WHEN NAME = 'aaemp' FROM EMP`
	ResetPlanCache()
	if _, err := sess.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ResetPlanCache()
}
