// Package replay runs the experiment suite over live NetFlow/IPFIX
// export, verified bit-for-bit against the synthetic model.
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
//     same socket so the receiver can demux the packet stream back into
//     buckets. A v9 or IPFIX message fills one UDP datagram, so a bucket
//     is one flow datagram unless it has thousands of rows (2 975 of the
//     flows/ set over IPFIX). Each pump carries a stream identity on the
//     wire — the IPFIX observation domain or NetFlow v9 source ID of its
//     flow packets, and an explicit field of its control frames — so
//     several pumps (one per vantage-point shard, see internal/cluster;
//     `lockdown replay` runs one per vantage point) share one bridge.
//   - The Bridge is a core.FlowSource backed by a collector.Collector. On
//     a dataset-cache miss it routes the key to the stream that serves
//     it, requests it from that stream's pump, decodes the datagrams the
//     demux attributes to the stream straight into the bucket's columns
//     (each datagram once), verifies every row bit-for-bit against its
//     own reference model, and hands the wire batch to the engine. Buckets of different streams are in
//     flight concurrently; lost or timed-out buckets are re-requested and
//     accounted per stream; rows arriving outside a bucket are counted as
//     orphans.
//
// The protocol is deliberately minimal: one request datagram per key from
// bridge to pump, and BEGIN / END / NACK control datagrams from pump to
// bridge, in-band with the flow packets (prefixed with
// collector.ControlMagic so the collector delivers them verbatim, in
// datagram order with the flow packets). Several pumps may share one bridge socket: each pump owns a
// stream identity that its flow packets carry in their export headers
// (IPFIX observation domain, NetFlow v9 source ID) and its
// control frames carry explicitly, so the bridge demuxes the interleaved
// traffic per stream. Within one stream the bridge serialises keys — one
// bucket in flight per stream — so flow packets need no per-bucket
// tagging: every packet of a stream between its BEGIN and END belongs to
// that stream's announced bucket, while other streams' buckets are in
// flight concurrently. Retries carry a per-stream generation number in
// their frames, and a pump answers one request at a time, so everything
// of an abandoned attempt arrives before the retry's BEGIN and is
// discarded, not misfiled. The bridge decides each attempt at a frame:
// the bucket completes on row count, and an END with rows missing (the
// pump sends END three times) is loss, re-requested at once. Only an attempt
// the pump never answered waits out its timeout and backs off.
//
// A bucket carries the columns of its key's kind (core.FlowKey.Columns),
// as the dataset stores them, and no others: both ends take the set from
// the key, so no protocol field names it. The pump's model generates that
// set, the NetFlow v9 and IPFIX templates carry exactly its fields, and
// the bridge decodes into, verifies and returns exactly its columns. Both
// formats carry every column the model generates at full width — 64-bit
// counters, 32-bit AS numbers, the direction — so every bucket the engine
// receives has been checked column for column off the wire, and no value
// of it comes from the bridge's own model.
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
// instead of an hour, and version 4 every key.
const protocolVersion = 4

// Control frame types.
const (
	frameBegin = 1 // announces a bucket: its key and exact row count
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

// encodeRequest builds a key-request datagram. The stream names the pump
// the bridge believes it is addressing; the pump NACKs a mismatch so a
// mis-wired cluster (a request socket dialed to the wrong pump) fails
// fast instead of stalling the stream's demux.
func encodeRequest(stream, gen uint32, k core.FlowKey) []byte {
	dst := make([]byte, 0, 64)
	dst = append(dst, requestMagic...)
	dst = append(dst, protocolVersion)
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], stream)
	dst = append(dst, u[:]...)
	binary.BigEndian.PutUint32(u[:], gen)
	dst = append(dst, u[:]...)
	return appendKey(dst, k)
}

// parseRequest decodes a key-request datagram.
func parseRequest(pkt []byte) (stream, gen uint32, k core.FlowKey, err error) {
	if len(pkt) < len(requestMagic)+1+8 || string(pkt[:len(requestMagic)]) != requestMagic {
		return 0, 0, core.FlowKey{}, fmt.Errorf("replay: not a request datagram")
	}
	if v := pkt[len(requestMagic)]; v != protocolVersion {
		return 0, 0, core.FlowKey{}, fmt.Errorf("replay: request protocol version %d (want %d)", v, protocolVersion)
	}
	stream = binary.BigEndian.Uint32(pkt[len(requestMagic)+1:])
	gen = binary.BigEndian.Uint32(pkt[len(requestMagic)+5:])
	k, rest, err := parseKey(pkt[len(requestMagic)+9:])
	if err != nil {
		return 0, 0, core.FlowKey{}, err
	}
	if len(rest) != 0 {
		return 0, 0, core.FlowKey{}, fmt.Errorf("replay: %d trailing bytes in request", len(rest))
	}
	return stream, gen, k, nil
}

// ctrlFrame is a decoded pump → bridge control datagram.
type ctrlFrame struct {
	typ    byte
	stream uint32
	gen    uint32
	rows   int
	key    core.FlowKey
	msg    string // frameNack only
}

// encodeCtrl builds a control frame datagram.
func encodeCtrl(typ byte, stream, gen uint32, rows int, k core.FlowKey, msg string) []byte {
	dst := make([]byte, 0, 96)
	dst = append(dst, collector.ControlMagic...)
	dst = append(dst, protocolVersion, typ)
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], stream)
	dst = append(dst, u[:]...)
	binary.BigEndian.PutUint32(u[:], gen)
	dst = append(dst, u[:]...)
	binary.BigEndian.PutUint32(u[:], uint32(rows))
	dst = append(dst, u[:]...)
	dst = appendKey(dst, k)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(msg)))
	dst = append(dst, l[:]...)
	dst = append(dst, msg...)
	return dst
}

// FrameStream reports the stream identity a pump → bridge control
// datagram carries, without decoding the rest of the frame. It exists
// for transport middleboxes (the chaos relay in internal/faultinject)
// that must attribute datagrams to streams: flow packets carry the
// stream in their export header (collector.StreamID), control frames
// carry it here. Non-control datagrams report false.
func FrameStream(pkt []byte) (uint32, bool) {
	hdr := len(collector.ControlMagic)
	if len(pkt) < hdr+2+4 || string(pkt[:hdr]) != collector.ControlMagic {
		return 0, false
	}
	return binary.BigEndian.Uint32(pkt[hdr+2:]), true
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
	f.stream = binary.BigEndian.Uint32(pkt[hdr+2:])
	f.gen = binary.BigEndian.Uint32(pkt[hdr+6:])
	f.rows = int(binary.BigEndian.Uint32(pkt[hdr+10:]))
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
