package faultinject

import (
	"slices"
	"testing"
)

// scheduleTable pins the chaos schedule: for datagrams 0–255 of streams
// 0, 1 and 2, the indices it drops and the indices it sends twice under
// two specs. Every other datagram is forwarded once. A change to the
// PRF, to the way a draw maps to a fault or to what indexes a stream's
// datagrams shows here as a changed row.
var scheduleTable = []struct {
	spec      string
	stream    uint32
	drop, dup []int
}{
	{"drop=0.05,dup=0.01,seed=7", 0, []int{8, 34, 45, 47, 57, 66, 70, 76, 90, 143, 203, 229, 249}, nil},
	{"drop=0.05,dup=0.01,seed=7", 1, []int{37, 39, 44, 50, 55, 68, 78, 81, 169, 183, 214, 222, 230, 241}, []int{126}},
	{"drop=0.05,dup=0.01,seed=7", 2, []int{7, 8, 11, 80, 84, 88, 96, 120, 190, 205, 208, 227, 243}, []int{122}},
	{"drop=0.05,dup=0.01,seed=42", 0, []int{1, 22, 36, 46, 52, 63, 84, 100, 130, 146, 155, 157, 158, 170, 189, 200, 206}, []int{148, 188, 213}},
	{"drop=0.05,dup=0.01,seed=42", 1, []int{24, 41, 72, 98, 110, 138, 203, 206}, []int{54, 84, 176}},
	{"drop=0.05,dup=0.01,seed=42", 2, []int{59, 100, 106, 118, 122, 123, 151, 154, 162, 172, 180, 184, 221, 230, 238, 239}, []int{9, 68, 179}},
}

// TestScheduleTable draws datagrams 0–255 of each table row's stream
// and checks the faults against the row: one draw per datagram, a drop
// below Drop, a duplicate below Drop+Dup.
func TestScheduleTable(t *testing.T) {
	for _, row := range scheduleTable {
		spec, err := ParseSpec(row.spec)
		if err != nil {
			t.Fatal(err)
		}
		var drop, dup []int
		for n := range 256 {
			switch u := uniform(spec.roll(row.stream, uint64(n))); {
			case u < spec.Drop:
				drop = append(drop, n)
			case u < spec.Drop+spec.Dup:
				dup = append(dup, n)
			}
		}
		if !slices.Equal(drop, row.drop) || !slices.Equal(dup, row.dup) {
			t.Errorf("%s stream %d: drops %v, dups %v; want drops %v, dups %v",
				row.spec, row.stream, drop, dup, row.drop, row.dup)
		}
	}
}
