package appclass

import (
	"sync"

	"lockdown/internal/flowrec"
	"lockdown/internal/simd"
)

// EDUClass is one of the educational-network traffic classes of Appendix B.
// Unlike the Table 1 classes they are defined almost exclusively by
// well-known ports (plus one AS for Spotify), because the academic
// network's analysis is connection-oriented.
type EDUClass string

// The Appendix B traffic classes.
const (
	EDUWeb           EDUClass = "Web"
	EDUQUIC          EDUClass = "QUIC"
	EDUPush          EDUClass = "Push notifications"
	EDUEmail         EDUClass = "Email"
	EDUVPN           EDUClass = "VPN"
	EDUSSH           EDUClass = "SSH"
	EDURemoteDesktop EDUClass = "Remote desktop"
	EDUSpotify       EDUClass = "Spotify"
	EDUOther         EDUClass = "Other"
)

// AllEDUClasses lists the Appendix B classes in presentation order.
func AllEDUClasses() []EDUClass {
	return []EDUClass{EDUWeb, EDUQUIC, EDUPush, EDUEmail, EDUVPN, EDUSSH, EDURemoteDesktop, EDUSpotify}
}

// spotifyASN is the AS listed for Spotify in Appendix B; the synthetic
// registry maps it to a European hosting AS (see package synth).
const spotifyASN = 24940

// eduPortClasses maps server ports to their Appendix B class. QUIC is kept
// separate from Web even though Appendix B lists UDP/443 under both; the
// connection analysis of Section 7 tracks QUIC on its own (Figure 12).
var eduPortClasses = map[flowrec.PortProto]EDUClass{
	{Proto: flowrec.ProtoTCP, Port: 80}:   EDUWeb,
	{Proto: flowrec.ProtoTCP, Port: 443}:  EDUWeb,
	{Proto: flowrec.ProtoTCP, Port: 8000}: EDUWeb,
	{Proto: flowrec.ProtoTCP, Port: 8080}: EDUWeb,
	{Proto: flowrec.ProtoUDP, Port: 443}:  EDUQUIC,

	{Proto: flowrec.ProtoTCP, Port: 5223}: EDUPush,
	{Proto: flowrec.ProtoTCP, Port: 5228}: EDUPush,

	{Proto: flowrec.ProtoTCP, Port: 25}:  EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 110}: EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 143}: EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 465}: EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 587}: EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 993}: EDUEmail,
	{Proto: flowrec.ProtoTCP, Port: 995}: EDUEmail,

	{Proto: flowrec.ProtoUDP, Port: 500}:  EDUVPN,
	{Proto: flowrec.ProtoUDP, Port: 4500}: EDUVPN,
	{Proto: flowrec.ProtoTCP, Port: 1194}: EDUVPN,
	{Proto: flowrec.ProtoUDP, Port: 1194}: EDUVPN,
	{Proto: flowrec.ProtoGRE}:             EDUVPN,
	{Proto: flowrec.ProtoESP}:             EDUVPN,

	{Proto: flowrec.ProtoTCP, Port: 22}: EDUSSH,

	{Proto: flowrec.ProtoTCP, Port: 1494}: EDURemoteDesktop,
	{Proto: flowrec.ProtoUDP, Port: 1494}: EDURemoteDesktop,
	{Proto: flowrec.ProtoTCP, Port: 3389}: EDURemoteDesktop,
	{Proto: flowrec.ProtoTCP, Port: 5938}: EDURemoteDesktop,
	{Proto: flowrec.ProtoUDP, Port: 5938}: EDURemoteDesktop,

	{Proto: flowrec.ProtoTCP, Port: 4070}: EDUSpotify,
}

// EDUColumns is what the Appendix B batch scans (ClassifyEDUAt,
// EDUCounter, CountEDUByClassDirBatch) read of a batch: the server-port
// columns, both AS numbers and the direction.
const EDUColumns = flowrec.PortLaneColumns | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir

// ClassifyEDUAt attributes batch row i of the educational network to its
// Appendix B class, reading only the AS and port columns. Port matching
// is attempted first; the Spotify AS rule applies afterwards; everything
// else is EDUOther (the paper reports that 39% of flows cannot be
// labelled).
func ClassifyEDUAt(b *flowrec.Batch, i int) EDUClass {
	if cls, ok := eduPortClasses[b.ServerPortAt(i)]; ok {
		return cls
	}
	if b.SrcAS[i] == spotifyASN || b.DstAS[i] == spotifyASN {
		return EDUSpotify
	}
	return EDUOther
}

// eduLaneOrder fixes a lane index per Appendix B class for the dense
// count kernel; eduLaneSpotify/eduLaneOther must stay aligned with it.
var eduLaneOrder = []EDUClass{
	EDUWeb, EDUQUIC, EDUPush, EDUEmail, EDUVPN, EDUSSH, EDURemoteDesktop, EDUSpotify, EDUOther,
}

const (
	eduLaneSpotify = 7
	eduLaneOther   = 8
	// eduLaneMiss marks rows whose server port is in no Appendix B list;
	// the fixup pass resolves them to Spotify or Other by AS.
	eduLaneMiss = 9
)

// eduLanes compiles eduPortClasses into a port-lane table once. GRE and
// ESP entries carry Port 0 in the map, which is exactly the masked
// server port the scan produces for them.
var eduLanes = sync.OnceValue(func() *flowrec.PortLanes {
	laneOf := make(map[EDUClass]uint8, len(eduLaneOrder))
	for k, cls := range eduLaneOrder {
		laneOf[cls] = uint8(k)
	}
	t := flowrec.NewPortLanes(eduLaneMiss)
	for pp, cls := range eduPortClasses {
		t.Set(pp, laneOf[cls])
	}
	return t
})

// CountEDUByClassDirBatch counts connections (rows) per class and
// direction over a columnar batch, without materialising records.
func CountEDUByClassDirBatch(b *flowrec.Batch) map[EDUClass]map[flowrec.Direction]int {
	var c EDUCounter
	c.AddBatch(b)
	return c.Counts()
}

// EDUCounter accumulates connection counts per class and direction over
// any number of batches: the zero value is empty, AddBatch scans one more
// batch into it without allocating, Counts renders the total. A day's
// count built from its 24 hour batches equals the count of their
// concatenation — the counts are integers.
type EDUCounter struct {
	acc [simd.PairLanes]uint64
}

// AddBatch counts the rows of b.
//
// The scan is the tiled kernel pattern: a bulk port-lane pass, a
// branchless fixup resolving port-less rows to Spotify or Other by AS,
// then a paired scatter count over (class lane, direction byte). Counts
// are integers, so accumulation order cannot matter. The direction lane
// deliberately spans the full byte so rows carrying an out-of-range Dir
// value land under their own key, as they always did.
func (c *EDUCounter) AddBatch(b *flowrec.Batch) {
	tab := eduLanes()
	var lanes, dirs [simd.Tile]uint8
	n := b.Len()
	for lo := 0; lo < n; lo += simd.Tile {
		hi := min(lo+simd.Tile, n)
		b.ServerPortLanes(tab, lo, hi, lanes[:hi-lo])
		srcAS := b.SrcAS[lo:hi]
		dstAS := b.DstAS[lo:hi]
		dstAS = dstAS[:len(srcAS)]
		tl := lanes[:len(srcAS)]
		for i, s := range srcAS {
			spotify := s == spotifyASN || dstAS[i] == spotifyASN
			resolved := simd.Select8(spotify, eduLaneSpotify, eduLaneOther)
			tl[i] = simd.Select8(tl[i] == eduLaneMiss, resolved, tl[i])
		}
		dcol := b.Dir[lo:hi]
		td := dirs[:len(dcol)]
		for i, d := range dcol {
			td[i] = uint8(d)
		}
		simd.ScatterCountBytePairs(&c.acc, lanes[:hi-lo], dirs[:hi-lo])
	}
}

// Counts returns the accumulated counts. A (class, direction) key exists
// iff its count is non-zero — the rows-seen semantics of per-row map
// writes.
func (c *EDUCounter) Counts() map[EDUClass]map[flowrec.Direction]int {
	out := make(map[EDUClass]map[flowrec.Direction]int)
	for k, cls := range eduLaneOrder {
		for d := 0; d < 256; d++ {
			if n := c.acc[k<<8|d]; n > 0 {
				if out[cls] == nil {
					out[cls] = make(map[flowrec.Direction]int)
				}
				out[cls][flowrec.Direction(d)] += int(n)
			}
		}
	}
	return out
}
