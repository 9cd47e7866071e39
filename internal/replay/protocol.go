// Package replay runs the experiment suite over live NetFlow/IPFIX
// export, each bucket checked by a digest and against the synthetic
// model.
//
// The suite's flow inputs are keyed batches (see core.FlowKey), one UTC
// day each: the plain batch of a vantage point, the gateway-pinned VPN
// variant, and one component's. The replay harness splits the producer and
// consumer of those keys across a UDP socket pair:
//
//   - The Pump owns the synthetic model on the exporter side. It listens
//     for key requests on a control socket and answers each by exporting
//     the key's batch as real NetFlow v9 or IPFIX packets
//     (collector.Exporter), framed by BEGIN/END control datagrams on the
//     same socket so the receiver can cut the packet stream back into
//     buckets. A v9 or IPFIX message fills one UDP datagram, so a bucket
//     is one flow datagram unless it has thousands of rows (2 975 of the
//     flows/ set over IPFIX). Several pumps (one per vantage-point shard,
//     see internal/cluster; `lockdown replay` runs one per vantage point)
//     serve one bridge, each as a stream of its own.
//   - The Bridge is a core.FlowSource with one collector.Collector per
//     stream. For each key a run reads it routes the key to the stream
//     that serves it, requests it from that stream's pump, decodes the
//     datagrams of the stream's data socket straight into the bucket's
//     columns (each datagram once), checks the bucket (below), and hands
//     the wire batch to the engine. Buckets of different streams are in
//     flight concurrently; lost, damaged or timed-out buckets are
//     re-requested and accounted per stream; rows arriving outside a
//     bucket are counted as orphans.
//
// The protocol is deliberately minimal: one request datagram per key from
// bridge to pump, and BEGIN / END / NACK control datagrams from pump to
// bridge, in-band with the flow packets (prefixed with
// collector.ControlMagic so the collector delivers them verbatim, in
// datagram order with the flow packets). A stream is a socket: each pump
// exports to a bridge data socket of its own, as each of the paper's
// vantage points is an exporter with a feed of its own, so the kernel
// keeps the streams apart and no datagram names its stream. (A pump's
// flow packets still carry its stream as the IPFIX observation domain or
// NetFlow v9 source ID, which scopes their templates.) Within one stream
// the bridge serialises keys — one bucket in flight per stream — so flow
// packets need no per-bucket tagging: every packet of a stream between
// its BEGIN and END belongs to that stream's announced bucket, while other
// streams' buckets are in flight concurrently. Retries carry a per-stream
// generation number in their frames, and a pump answers one request at a
// time, so everything of an abandoned attempt arrives before the retry's
// BEGIN and is discarded, not misfiled. The bridge decides each attempt at a frame:
// the bucket completes on row count, and an END with rows missing (the
// pump sends END three times) is loss, re-requested at once. Only an attempt
// the pump never answered waits out its timeout and backs off.
//
// A bucket carries the columns of its key's kind (core.FlowKey.Columns),
// as the dataset stores them, and no others: both ends take the set from
// the key, so no protocol field names it. The pump's model generates that
// set, the NetFlow v9 and IPFIX templates carry exactly its fields, and
// the bridge decodes into, checks and returns exactly its columns. Both
// formats carry every column the model generates at full width — 64-bit
// counters, 32-bit AS numbers, the direction — so no value the engine
// reads comes from the bridge's own model.
//
// Every bucket the engine receives has passed three checks, none of which
// draws the day a second time:
//
//   - Codec and transport: BEGIN carries the CRC-32C digest
//     (flowrec.Batch.Digest) of the batch the pump is about to encode, and
//     the bridge recomputes it over the bucket it decoded. A flipped bit,
//     a stray row or a misfiled datagram that still completes the bucket
//     fails it, and the bucket is re-requested at once, like a short one.
//   - Model size: BEGIN's row count must equal the sum of the hour counts
//     of the bridge's own model (core.SyntheticSource.HourFlows, which
//     draws no row). A mismatch is fatal.
//   - Model identity: the bridge draws one hour of the key from its own
//     model, the first hour of the key's window that has rows, and
//     compares it column by column with the bucket's leading rows. The
//     digest held, so the bucket is what the pump drew: a difference means
//     the pump's model is not the bridge's (another seed, say), and is
//     fatal at once.
//
// What is no longer checked per bucket is whether the hours other than
// the checked one equal the bridge's model. Those rest on the generator's
// determinism: pump and bridge build the same model from the same
// core.Options, and a day is its hours drawn one by one from each hour's
// own streams. They are still checked end to end, by CI's wire goldendiff
// of `lockdown replay` against `lockdown all` and by the output check of
// every benchmark iteration.
package replay

import (
	"encoding/binary"
	"fmt"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// requestMagic prefixes key-request datagrams (bridge → pump control
// socket). Distinct from collector.ControlMagic, which prefixes the
// pump → bridge control frames on the data path.
const requestMagic = "LKRQ"

// protocolVersion is bumped on any incompatible change to the datagram
// layouts below or to what a key means; both sides reject other versions.
// Version 2 added the stream identity to requests and control frames
// (multi-pump demux); version 3 made a component key name a UTC day
// instead of an hour, and version 4 every key; version 5 added the
// bucket's digest to control frames, which BEGIN fills; version 6 dropped
// the stream identity again, since each stream has a socket of its own.
const protocolVersion = 6

// Control frame types.
const (
	frameBegin = 1 // announces a bucket: its key, exact row count and digest
	frameEnd   = 2 // closes a bucket: all rows for the key were sent
	frameNack  = 3 // the pump could not serve the key; carries an error
)

// appendKey appends the wire encoding of k: kind, hour (unix seconds,
// big endian), then length-prefixed vantage point and component name.
func appendKey(dst []byte, k core.FlowKey) []byte {
	dst = append(dst, byte(k.Kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(k.Hour.Time().Unix()))
	dst = append(dst, byte(len(k.VP)))
	dst = append(dst, k.VP...)
	dst = append(dst, byte(len(k.Name)))
	dst = append(dst, k.Name...)
	return dst
}

// parseKey decodes a key and returns the remaining bytes. The time must
// be the start of a UTC day.
func parseKey(b []byte) (core.FlowKey, []byte, error) {
	if len(b) < 1+8+1 {
		return core.FlowKey{}, nil, fmt.Errorf("replay: truncated key")
	}
	var k core.FlowKey
	k.Kind = core.FlowKind(b[0])
	if k.Kind > core.KindComponentFlows {
		return core.FlowKey{}, nil, fmt.Errorf("replay: unknown batch kind %d", b[0])
	}
	secs := int64(binary.BigEndian.Uint64(b[1:9]))
	if secs%(24*3600) != 0 {
		return core.FlowKey{}, nil, fmt.Errorf("replay: %s key time %d is not a UTC day", k.Kind, secs)
	}
	k.Hour = core.Hour(secs / 3600)
	b = b[9:]
	vpLen := int(b[0])
	if len(b) < 1+vpLen+1 {
		return core.FlowKey{}, nil, fmt.Errorf("replay: truncated vantage point")
	}
	k.VP = synth.VantagePoint(b[1 : 1+vpLen])
	b = b[1+vpLen:]
	nameLen := int(b[0])
	if len(b) < 1+nameLen {
		return core.FlowKey{}, nil, fmt.Errorf("replay: truncated component name")
	}
	k.Name = string(b[1 : 1+nameLen])
	return k, b[1+nameLen:], nil
}

// encodeRequest builds a key-request datagram: the attempt's generation
// and the key.
func encodeRequest(gen uint32, k core.FlowKey) []byte {
	dst := make([]byte, 0, 64)
	dst = append(dst, requestMagic...)
	dst = append(dst, protocolVersion)
	dst = binary.BigEndian.AppendUint32(dst, gen)
	return appendKey(dst, k)
}

// parseRequest decodes a key-request datagram.
func parseRequest(pkt []byte) (gen uint32, k core.FlowKey, err error) {
	if len(pkt) < len(requestMagic)+1+4 || string(pkt[:len(requestMagic)]) != requestMagic {
		return 0, core.FlowKey{}, fmt.Errorf("replay: not a request datagram")
	}
	if v := pkt[len(requestMagic)]; v != protocolVersion {
		return 0, core.FlowKey{}, fmt.Errorf("replay: request protocol version %d (want %d)", v, protocolVersion)
	}
	gen = binary.BigEndian.Uint32(pkt[len(requestMagic)+1:])
	k, rest, err := parseKey(pkt[len(requestMagic)+5:])
	if err != nil {
		return 0, core.FlowKey{}, err
	}
	if len(rest) != 0 {
		return 0, core.FlowKey{}, fmt.Errorf("replay: %d trailing bytes in request", len(rest))
	}
	return gen, k, nil
}

// ctrlFrame is a decoded pump → bridge control datagram.
type ctrlFrame struct {
	typ    byte
	gen    uint32
	rows   int
	digest uint32 // the bucket's flowrec.Batch.Digest (frameBegin; zero otherwise)
	key    core.FlowKey
	msg    string // frameNack only
}

// encodeCtrl builds a control frame datagram.
func encodeCtrl(typ byte, gen uint32, rows int, digest uint32, k core.FlowKey, msg string) []byte {
	dst := make([]byte, 0, 96)
	dst = append(dst, collector.ControlMagic...)
	dst = append(dst, protocolVersion, typ)
	dst = binary.BigEndian.AppendUint32(dst, gen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rows))
	dst = binary.BigEndian.AppendUint32(dst, digest)
	dst = appendKey(dst, k)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(msg)))
	dst = append(dst, l[:]...)
	dst = append(dst, msg...)
	return dst
}

// parseCtrl decodes a control frame datagram.
func parseCtrl(pkt []byte) (ctrlFrame, error) {
	hdr := len(collector.ControlMagic)
	if len(pkt) < hdr+2+12 || string(pkt[:hdr]) != collector.ControlMagic {
		return ctrlFrame{}, fmt.Errorf("replay: not a control datagram")
	}
	if v := pkt[hdr]; v != protocolVersion {
		return ctrlFrame{}, fmt.Errorf("replay: control protocol version %d (want %d)", v, protocolVersion)
	}
	f := ctrlFrame{typ: pkt[hdr+1]}
	if f.typ != frameBegin && f.typ != frameEnd && f.typ != frameNack {
		return ctrlFrame{}, fmt.Errorf("replay: unknown control frame type %d", f.typ)
	}
	f.gen = binary.BigEndian.Uint32(pkt[hdr+2:])
	f.rows = int(binary.BigEndian.Uint32(pkt[hdr+6:]))
	f.digest = binary.BigEndian.Uint32(pkt[hdr+10:])
	key, rest, err := parseKey(pkt[hdr+14:])
	if err != nil {
		return ctrlFrame{}, err
	}
	f.key = key
	if len(rest) < 2 {
		return ctrlFrame{}, fmt.Errorf("replay: truncated control frame")
	}
	msgLen := int(binary.BigEndian.Uint16(rest))
	if len(rest) != 2+msgLen {
		return ctrlFrame{}, fmt.Errorf("replay: control frame message length mismatch")
	}
	f.msg = string(rest[2 : 2+msgLen])
	return f, nil
}
