package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestHistogramBuckets pins the bucket geometry: zero in bucket 0,
// powers of two at bucket boundaries, overflow clamped to the last
// bucket.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 50, histBuckets - 1}, {1<<63 - 1, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for k := 1; k < histBuckets-1; k++ {
		lo, hi := bucketBounds(k)
		if bucketOf(lo) != k || bucketOf(hi) != k {
			t.Errorf("bucket %d bounds [%d,%d] do not round-trip", k, lo, hi)
		}
		if bucketOf(lo-1) == k || bucketOf(hi+1) == k {
			t.Errorf("bucket %d bounds [%d,%d] not tight", k, lo, hi)
		}
	}
}

// TestQuantileProperty is the testing/quick property the issue asks
// for: for any non-empty observation set, the estimated quantile lands
// in the same power-of-two bucket as the exact quantile — the
// histogram's resolution guarantee (within 2× above bucket zero) —
// estimates are monotone in q, and no estimate exceeds the observed
// max.
func TestQuantileProperty(t *testing.T) {
	prop := func(raw []uint32, q16 uint16) bool {
		if len(raw) == 0 {
			return true
		}
		q := float64(q16%1000+1) / 1000.0 // q ∈ (0, 1]
		h := &Histogram{}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		rank := int(q * float64(len(vals)))
		if rank == 0 {
			rank = 1
		}
		exact := vals[rank-1]
		est := h.Quantile(q)
		if bucketOf(est) != bucketOf(exact) {
			t.Logf("q=%v exact=%d (bucket %d) est=%d (bucket %d) vals=%v",
				q, exact, bucketOf(exact), est, bucketOf(est), vals)
			return false
		}
		// Monotonicity across a few probe points, and no estimate above
		// the observed max.
		maxV := vals[len(vals)-1]
		if est > maxV {
			t.Logf("q=%v est=%d above max %d", q, est, maxV)
			return false
		}
		prev := int64(-1)
		for _, qq := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
			e := h.Quantile(qq)
			if e < prev || e > maxV {
				t.Logf("q=%v: estimate %d, previous %d, max %d", qq, e, prev, maxV)
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileEmptyAndClamp covers the edges: empty histogram, q
// outside (0,1], overflow bucket interpolation bounded by the max.
func TestQuantileEmptyAndClamp(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(1 << 55) // overflow bucket
	h.Observe(1 << 56)
	if got := h.Quantile(1); got > 1<<56 || got < 1<<47 {
		t.Fatalf("overflow-bucket quantile %d out of [2^47, max]", got)
	}
	if h.Quantile(-1) != h.Quantile(0.0000001) {
		t.Fatal("q clamping broken")
	}
}

// TestHistogramConcurrent verifies lock-free observation under -race
// and that no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
				if i%1024 == 0 {
					_ = h.Quantile(0.95) // concurrent reads must be safe
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost observations: %d != %d", h.Count(), workers*per)
	}
	s := h.Snapshot()
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantile ordering violated: %+v", s)
	}
}
