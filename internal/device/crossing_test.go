package device

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"intango/internal/packet"
)

// refParse is the heap decoder the pipe crossed with before it parsed
// into pooled packets, kept verbatim (down to the header decoders) as
// the oracle for the pooled one.
func refParse(data []byte) (*packet.Packet, error) {
	p := &packet.Packet{}
	n, err := refDecodeIP(&p.IP, data)
	if err != nil {
		return nil, err
	}
	end := int(p.IP.TotalLength)
	if end > len(data) || end < n {
		end = len(data)
	}
	l4 := data[n:end]
	if p.IP.FragOffset != 0 {
		p.Payload = append([]byte(nil), l4...)
		return p, nil
	}
	switch p.IP.Protocol {
	case packet.ProtoTCP:
		p.TCP = &packet.TCPHeader{}
		hn, err := refDecodeTCP(p.TCP, l4)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), l4[hn:]...)
	case packet.ProtoUDP:
		p.UDP = &packet.UDPHeader{}
		hn, err := refDecodeUDP(p.UDP, l4)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), l4[hn:]...)
	case packet.ProtoICMP:
		p.ICMP = &packet.ICMPMessage{}
		if len(l4) < 8 {
			return nil, fmt.Errorf("icmp: truncated message: %d bytes", len(l4))
		}
		p.ICMP.Type, p.ICMP.Code = l4[0], l4[1]
		p.ICMP.Checksum = be16(l4[2:])
		copy(p.ICMP.Rest[:], l4[4:8])
		p.ICMP.Body = append([]byte(nil), l4[8:]...)
	default:
		p.Payload = append([]byte(nil), l4...)
	}
	return p, nil
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 { return uint32(be16(b))<<16 | uint32(be16(b[2:])) }

func refDecodeIP(h *packet.IPv4Header, data []byte) (int, error) {
	if len(data) < packet.IPv4HeaderLen {
		return 0, fmt.Errorf("ipv4: truncated header: %d bytes", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return 0, fmt.Errorf("ipv4: bad version %d", v)
	}
	hl := int(data[0]&0x0f) * 4
	if hl < packet.IPv4HeaderLen {
		return 0, fmt.Errorf("ipv4: bad IHL %d", hl)
	}
	if len(data) < hl {
		return 0, fmt.Errorf("ipv4: truncated options: have %d want %d", len(data), hl)
	}
	h.TOS = data[1]
	h.TotalLength = be16(data[2:])
	h.ID = be16(data[4:])
	fo := be16(data[6:])
	h.Flags = uint8(fo >> 13)
	h.FragOffset = fo & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = be16(data[10:])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	if hl > packet.IPv4HeaderLen {
		h.Options = append([]byte(nil), data[packet.IPv4HeaderLen:hl]...)
	}
	return hl, nil
}

func refDecodeTCP(h *packet.TCPHeader, data []byte) (int, error) {
	if len(data) < packet.TCPHeaderLen {
		return 0, fmt.Errorf("tcp: truncated header: %d bytes", len(data))
	}
	h.SrcPort, h.DstPort = be16(data[0:]), be16(data[2:])
	h.Seq, h.Ack = packet.Seq(be32(data[4:])), packet.Seq(be32(data[8:]))
	hl := int(data[12]>>4) * 4
	h.RawDataOffset = data[12] >> 4
	h.Flags = data[13]
	h.Window, h.Checksum, h.Urgent = be16(data[14:]), be16(data[16:]), be16(data[18:])
	if hl < packet.TCPHeaderLen {
		return 0, fmt.Errorf("tcp: header length %d < 20", hl)
	}
	if len(data) < hl {
		return 0, fmt.Errorf("tcp: truncated options: have %d want %d", len(data), hl)
	}
	p := packet.TCPHeaderLen
opts:
	for p < hl {
		switch kind := data[p]; kind {
		case packet.OptEnd:
			break opts
		case packet.OptNOP:
			h.Options = append(h.Options, packet.TCPOption{Kind: packet.OptNOP})
			p++
		default:
			if p+1 >= hl {
				return 0, fmt.Errorf("tcp: option %d truncated", kind)
			}
			olen := int(data[p+1])
			if olen < 2 || p+olen > hl {
				return 0, fmt.Errorf("tcp: option %d bad length %d", kind, olen)
			}
			h.Options = append(h.Options, packet.TCPOption{Kind: kind, Data: append([]byte(nil), data[p+2:p+olen]...)})
			p += olen
		}
	}
	return hl, nil
}

func refDecodeUDP(h *packet.UDPHeader, data []byte) (int, error) {
	if len(data) < packet.UDPHeaderLen {
		return 0, fmt.Errorf("udp: truncated header: %d bytes", len(data))
	}
	h.SrcPort, h.DstPort = be16(data[0:]), be16(data[2:])
	h.Length, h.Checksum = be16(data[4:]), be16(data[6:])
	return packet.UDPHeaderLen, nil
}

// refSerialize is the encoder the pipe used before Packet.AppendTo:
// the L4 layer serialized on its own, then the IP header in front.
func refSerialize(p *packet.Packet, opts packet.SerializeOptions) []byte {
	var l4 []byte
	switch {
	case p.TCP != nil:
		l4 = p.TCP.SerializeTo(nil, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.UDP != nil:
		l4 = p.UDP.SerializeTo(nil, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.ICMP != nil:
		l4 = p.ICMP.SerializeTo(nil, opts)
	default:
		l4 = p.Payload
	}
	buf := p.IP.SerializeTo(nil, len(l4), opts)
	return append(buf, l4...)
}

// samePacket compares every wire-visible field of two decoded packets,
// treating nil and empty byte slices alike.
func samePacket(a, b *packet.Packet) error {
	ia, ib := a.IP, b.IP
	ia.Options, ib.Options = nil, nil
	if !reflect.DeepEqual(ia, ib) || !bytes.Equal(a.IP.Options, b.IP.Options) {
		return fmt.Errorf("IP: %+v vs %+v", a.IP, b.IP)
	}
	if !bytes.Equal(a.Payload, b.Payload) || a.BadTCPChecksum != b.BadTCPChecksum {
		return fmt.Errorf("payload: %q vs %q", a.Payload, b.Payload)
	}
	if (a.TCP == nil) != (b.TCP == nil) || (a.UDP == nil) != (b.UDP == nil) || (a.ICMP == nil) != (b.ICMP == nil) {
		return fmt.Errorf("layers: %v vs %v", a, b)
	}
	switch {
	case a.TCP != nil:
		ta, tb := *a.TCP, *b.TCP
		ta.Options, tb.Options = nil, nil
		if !reflect.DeepEqual(ta, tb) || len(a.TCP.Options) != len(b.TCP.Options) {
			return fmt.Errorf("TCP: %+v vs %+v", a.TCP, b.TCP)
		}
		for i, o := range a.TCP.Options {
			q := b.TCP.Options[i]
			if o.Kind != q.Kind || !bytes.Equal(o.Data, q.Data) {
				return fmt.Errorf("TCP option %d: %+v vs %+v", i, o, q)
			}
		}
	case a.UDP != nil:
		if *a.UDP != *b.UDP {
			return fmt.Errorf("UDP: %+v vs %+v", a.UDP, b.UDP)
		}
	case a.ICMP != nil:
		ma, mb := *a.ICMP, *b.ICMP
		ma.Body, mb.Body = nil, nil
		if !reflect.DeepEqual(ma, mb) || !bytes.Equal(a.ICMP.Body, b.ICMP.Body) {
			return fmt.Errorf("ICMP: %+v vs %+v", a.ICMP, b.ICMP)
		}
	}
	return nil
}

// pushFrame queues raw wire bytes at e, as if its peer had written a
// packet encoding to them.
func (e *PipeEnd) pushFrame(data []byte) {
	e.mu.Lock()
	if e.n == len(e.ring) {
		e.grow()
	}
	i := (e.head + e.n) % len(e.ring)
	e.ring[i] = append(e.ring[i][:0], data...)
	e.n++
	e.mu.Unlock()
}

// crossingSeeds are wire images of every flavour the pipe carries.
func crossingSeeds() [][]byte {
	src, dst := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	fix := packet.SerializeOptions{ComputeChecksums: true, FixLengths: true}
	tcp := packet.NewTCP(src, 40000, dst, 80, packet.FlagPSH|packet.FlagACK, 1000, 2000, []byte("GET /?q=ultrasurf HTTP/1.1\r\n\r\n"))
	tcp.TCP.Options = []packet.TCPOption{packet.MSSOption(1460), {Kind: packet.OptNOP}, packet.TimestampOption(1, 2), packet.MD5Option([16]byte{7})}
	tcp.Finalize()
	syn := packet.NewTCP(src, 40000, dst, 80, packet.FlagSYN, 1, 0, nil)
	udp := packet.NewUDP(src, 5353, dst, 53, []byte("query"))
	icmp := &packet.Packet{IP: packet.IPv4Header{TTL: 64, Protocol: packet.ProtoICMP, Src: dst, Dst: src}, ICMP: packet.TimeExceeded(tcp)}
	icmp.Finalize()
	opts := packet.NewTCP(src, 1, dst, 2, packet.FlagACK, 3, 4, []byte("x"))
	opts.IP.Options = []byte{1, 1, 1, 0}
	opts.Finalize()
	seeds := [][]byte{
		tcp.Serialize(fix), syn.Serialize(fix), udp.Serialize(fix),
		icmp.Serialize(fix), opts.Serialize(fix), {0x45}, {},
	}
	frags, _ := packet.Fragment(tcp, 60)
	for _, f := range frags {
		seeds = append(seeds, f.Serialize(fix))
	}
	return seeds
}

// FuzzPipeCrossing feeds arbitrary frames to a pipe end's reader — the
// pooled decoder at the device boundary — and holds it to the heap
// decoder it replaced: both must reject a frame with the same error or
// agree on every field, and every accepted frame must re-encode
// through Packet.AppendTo byte for byte as the old encoder did. The
// reader's packets are released and the pool reused across inputs, so
// a decoder that leaks state between incarnations fails too, and the
// ring's buffers are overwritten before the comparison, so one that
// aliases the frame does.
func FuzzPipeCrossing(f *testing.F) {
	for _, s := range crossingSeeds() {
		f.Add(s)
	}
	a, b := NewPipe(0)
	defer a.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		b.pushFrame(data)
		got, err := b.ReadPacket()
		want, wantErr := refParse(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decoders disagree on % x: pooled %v, reference %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		defer got.Release()
		// The packet must own its bytes: scribble over every wire
		// buffer the ring holds before comparing.
		for _, frame := range b.ring {
			frame = frame[:cap(frame)]
			for i := range frame {
				frame[i] = 0xa5
			}
		}
		if err := samePacket(got, want); err != nil {
			t.Fatalf("decoders disagree on % x: %v", data, err)
		}
		for _, opts := range []packet.SerializeOptions{{}, {ComputeChecksums: true, FixLengths: true}} {
			old := refSerialize(want, opts)
			if enc := got.AppendTo(nil, opts); !bytes.Equal(enc, old) {
				t.Fatalf("AppendTo(%+v) of % x:\n got % x\nwant % x", opts, data, enc, old)
			}
			if enc := got.AppendTo([]byte("prefix"), opts); !bytes.Equal(enc, append([]byte("prefix"), old...)) {
				t.Fatalf("AppendTo(%+v) onto a non-empty buffer of % x", opts, data)
			}
		}
	})
}

// TestPipeCrossingZeroAlloc: once the ring and the pools are warm, a
// write, the matching read and the release allocate nothing.
func TestPipeCrossingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	a, b := NewPipe(0)
	defer a.Close()
	src, dst := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	payload := []byte("GET /search?q=ultrasurf HTTP/1.1\r\nHost: origin.example\r\n\r\n")
	pl := a.PacketPool()
	cross := func() {
		p := pl.NewTCP(src, 40000, dst, 80, packet.FlagPSH|packet.FlagACK, 1000, 2000, payload)
		p.AddTimestampOption(1, 2)
		p.Finalize()
		if err := a.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	for i := 0; i < 10; i++ {
		cross()
	}
	if n := testing.AllocsPerRun(1000, cross); n != 0 {
		t.Fatalf("steady-state pipe crossing allocates %v per packet, want 0", n)
	}
}
