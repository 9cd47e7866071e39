package timeseries

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The container keeps its points in time order by construction and cuts
// ranges by binary search. The tests below hold it to the straight-line
// reading it replaced: a stable sort on every read and a linear scan per
// Slice, compared point for point with ==.

// refSorted returns pts stable-sorted by time, leaving pts untouched.
func refSorted(pts []Point) []Point {
	out := append([]Point(nil), pts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}

// refSlice is the linear Slice: every point with from <= t < to, in order.
func refSlice(sorted []Point, from, to time.Time) []Point {
	var out []Point
	for _, p := range sorted {
		if !p.T.Before(from) && p.T.Before(to) {
			out = append(out, p)
		}
	}
	return out
}

func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// oracleSeries returns the raw points of one random series of the given
// kind, in the order they are added.
func oracleSeries(rng *rand.Rand, kind string) []Point {
	if kind == "empty" {
		return nil
	}
	n := 1 + rng.Intn(200)
	pts := make([]Point, n)
	at := t0
	for i := range pts {
		switch kind {
		case "duplicates":
			// Steps of 0, 1 or 2 hours: runs of equal timestamps whose
			// insertion order the stable sort must keep.
			at = at.Add(time.Duration(rng.Intn(3)) * time.Hour)
		default:
			at = at.Add(time.Duration(1+rng.Intn(90)) * time.Minute)
		}
		pts[i] = Point{T: at, V: float64(i)}
	}
	switch kind {
	case "shuffled":
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	case "duplicates":
		// Out of order too, so equal timestamps arrive interleaved.
		for k := 0; k < n/4; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			pts[i], pts[j] = pts[j], pts[i]
		}
	}
	return pts
}

// oracleRanges returns the [from, to) ranges every series is cut at: the
// empty, inverted, before-first, past-last and exact-bound cases plus
// random ones.
func oracleRanges(rng *rand.Rand, sorted []Point) [][2]time.Time {
	first, last := t0, t0.Add(time.Hour)
	if len(sorted) > 0 {
		first, last = sorted[0].T, sorted[len(sorted)-1].T
	}
	rs := [][2]time.Time{
		{first, first},                      // empty
		{last, first},                       // inverted
		{first.Add(-48 * time.Hour), first}, // before the first point
		{first.Add(-48 * time.Hour), first.Add(-time.Hour)},   // wholly before
		{last.Add(time.Nanosecond), last.Add(48 * time.Hour)}, // past the last
		{last, last.Add(time.Nanosecond)},                     // the last point alone
		{first, last},                                         // exact bounds: excludes last
		{first, last.Add(time.Nanosecond)},                    // the whole series
	}
	span := last.Sub(first) + 4*time.Hour
	for k := 0; k < 20; k++ {
		from := first.Add(-2*time.Hour + time.Duration(rng.Int63n(int64(span))))
		to := first.Add(-2*time.Hour + time.Duration(rng.Int63n(int64(span))))
		rs = append(rs, [2]time.Time{from, to})
		if len(sorted) > 0 {
			// Bounds that fall exactly on points.
			a, b := sorted[rng.Intn(len(sorted))].T, sorted[rng.Intn(len(sorted))].T
			rs = append(rs, [2]time.Time{a, b})
		}
	}
	return rs
}

func TestSeriesMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"ordered", "shuffled", "duplicates", "empty"} {
		for trial := 0; trial < 50; trial++ {
			raw := oracleSeries(rng, kind)
			s := New(kind)
			for _, p := range raw {
				s.AddPoint(p)
			}
			if kind == "ordered" && s.unsorted {
				t.Fatal("a series built in time order is marked for sorting")
			}
			want := refSorted(raw)
			samePoints(t, kind+" Points", s.Points(), want)
			for _, r := range oracleRanges(rng, want) {
				sub := s.Slice(r[0], r[1])
				samePoints(t, kind+" Slice", sub.Points(), refSlice(want, r[0], r[1]))
				// A slice of a slice cuts the same points.
				samePoints(t, kind+" Slice of Slice", sub.Slice(r[0], r[1]).Points(), refSlice(want, r[0], r[1]))
			}
		}
	}
}

// TestSliceViewsDoNotAlias: a Slice result shares its parent's points, so
// Adds on either side, in order or not, must leave the other's points and
// their order unchanged.
func TestSliceViewsDoNotAlias(t *testing.T) {
	for _, inOrder := range []bool{true, false} {
		parent := hourly(1, 2, 3, 4, 5, 6)
		parent.Grow(16) // spare capacity past the last point, where an append would land
		before := append([]Point(nil), parent.Points()...)
		view := parent.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
		at := t0.Add(10 * time.Hour) // after every point
		if !inOrder {
			at = t0.Add(-time.Hour) // before every point
		}
		view.Add(at, 99)
		samePoints(t, "view after its Add", view.Points(),
			refSorted([]Point{{T: t0.Add(time.Hour), V: 2}, {T: t0.Add(2 * time.Hour), V: 3}, {T: at, V: 99}}))
		samePoints(t, "parent after Add to its view", parent.Points(), before)

		// And the other way round: the parent grows into its spare
		// capacity, or is re-sorted, and an earlier view keeps its points.
		view = parent.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
		viewBefore := append([]Point(nil), view.Points()...)
		parent.Add(at, 99)
		parent.Points()
		samePoints(t, "view after Add to its parent", view.Points(), viewBefore)
	}
}
