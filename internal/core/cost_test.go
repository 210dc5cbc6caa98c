package core

import (
	"math"
	"math/big"
	"testing"

	"hetlb/internal/rng"
)

func TestNewTwoClusterRejectsNegativeCosts(t *testing.T) {
	cases := []struct {
		name   string
		p0, p1 []Cost
		ok     bool
	}{
		{"all zero", []Cost{0, 0}, []Cost{0, 0}, true},
		{"positive and infinite", []Cost{1, Infinite}, []Cost{Infinite, 1}, true},
		{"max int64", []Cost{math.MaxInt64}, []Cost{1}, true},
		{"negative on cluster 0", []Cost{3, -1}, []Cost{1, 1}, false},
		{"negative on cluster 1", []Cost{3, 1}, []Cost{-5, 1}, false},
		{"min int64", []Cost{1}, []Cost{math.MinInt64}, false},
	}
	for _, tc := range cases {
		_, err := NewTwoCluster(1, 1, tc.p0, tc.p1)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCmpProductsExact checks the 128-bit comparison against math/big on
// edge values (where int64 products wrap) and on random costs.
func TestCmpProductsExact(t *testing.T) {
	want := func(a, b, c, d Cost) int {
		l := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		r := new(big.Int).Mul(big.NewInt(c), big.NewInt(d))
		return l.Cmp(r)
	}
	edges := []Cost{0, 1, 2, 3, 1 << 31, 1 << 32, 1<<32 + 1, 1 << 33, Infinite, Infinite + 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				for _, d := range edges {
					if got, w := CmpProducts(a, b, c, d), want(a, b, c, d); got != w {
						t.Fatalf("CmpProducts(%d, %d, %d, %d) = %d, want %d", a, b, c, d, got, w)
					}
				}
			}
		}
	}
	gen := rng.New(7)
	for i := 0; i < 10000; i++ {
		a, b, c, d := Cost(gen.Uint64()>>1), Cost(gen.Uint64()>>1), Cost(gen.Uint64()>>1), Cost(gen.Uint64()>>1)
		if got, w := CmpProducts(a, b, c, d), want(a, b, c, d); got != w {
			t.Fatalf("CmpProducts(%d, %d, %d, %d) = %d, want %d", a, b, c, d, got, w)
		}
	}
}
