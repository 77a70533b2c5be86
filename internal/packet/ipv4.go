package packet

import (
	"encoding/binary"
	"fmt"
)

// Addr is an IPv4 address. It is an array (not a slice) so it can key
// maps and compare with ==.
type Addr [4]byte

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// String renders the address in dotted-quad form.
func (a Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// IP protocol numbers used in this codebase.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4 flag bits (in the Flags field, already shifted out of the
// fragment-offset word).
const (
	IPFlagMoreFragments = 0x1
	IPFlagDontFragment  = 0x2
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4Header is an IPv4 header. TotalLength is an explicit field rather
// than being derived at serialization time, because a deliberately lying
// TotalLength ("IP total length > actual packet length", Table 3 row 1)
// is one of the insertion-packet discrepancies the paper studies. Use
// SetLengths to fill it honestly.
type IPv4Header struct {
	TOS         uint8
	TotalLength uint16
	ID          uint16
	Flags       uint8  // IPFlag* bits
	FragOffset  uint16 // in 8-byte units
	TTL         uint8
	Protocol    uint8
	Checksum    uint16 // filled by SerializeTo when opts.ComputeChecksums
	Src, Dst    Addr
	Options     []byte // raw options, padded by caller to a 4-byte multiple
}

// HeaderLen returns the encoded header length in bytes.
func (h *IPv4Header) HeaderLen() int { return IPv4HeaderLen + len(h.Options) }

// SetLengths sets TotalLength from the header length and an L4 length.
func (h *IPv4Header) SetLengths(l4len int) {
	h.TotalLength = uint16(h.HeaderLen() + l4len)
}

// MoreFragments reports whether the MF flag is set.
func (h *IPv4Header) MoreFragments() bool { return h.Flags&IPFlagMoreFragments != 0 }

// IsFragment reports whether the header describes anything other than a
// whole, unfragmented datagram.
func (h *IPv4Header) IsFragment() bool { return h.MoreFragments() || h.FragOffset != 0 }

// SerializeOptions controls serialization, in the gopacket style.
type SerializeOptions struct {
	// ComputeChecksums recomputes IP/TCP/UDP/ICMP checksums. Leave it
	// false to emit whatever value is already in the header field — the
	// mechanism for crafting bad-checksum insertion packets.
	ComputeChecksums bool
	// FixLengths recomputes length fields (IP TotalLength, TCP data
	// offset). Leave it false to emit lying lengths.
	FixLengths bool
}

// SerializeTo appends the encoded header to buf and returns the result.
// payloadLen is the L4 byte count that follows (used only when
// opts.FixLengths is set).
func (h *IPv4Header) SerializeTo(buf []byte, payloadLen int, opts SerializeOptions) []byte {
	if len(h.Options)%4 != 0 {
		// Options must pad to a 4-byte boundary on the wire; pad with
		// End-of-Options (0) rather than emitting a malformed IHL.
		pad := 4 - len(h.Options)%4
		h.Options = append(h.Options, make([]byte, pad)...)
	}
	if opts.FixLengths {
		h.SetLengths(payloadLen)
	}
	start := len(buf)
	hl := h.HeaderLen()
	out := append(buf, make([]byte, hl)...)
	b := out[start:]
	b[0] = 4<<4 | uint8(hl/4)
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLength)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	copy(b[20:], h.Options)
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(b[10:], 0)
		h.Checksum = Checksum(b[:hl], 0)
	}
	binary.BigEndian.PutUint16(b[10:], h.Checksum)
	return out
}

// DecodeFromBytes parses an IPv4 header from data and returns the header
// length consumed.
func (h *IPv4Header) DecodeFromBytes(data []byte) (int, error) { return h.decode(data, nil) }

// decode is DecodeFromBytes copying any options into opts's storage.
func (h *IPv4Header) decode(data, opts []byte) (int, error) {
	if len(data) < IPv4HeaderLen {
		return 0, fmt.Errorf("ipv4: truncated header: %d bytes", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return 0, fmt.Errorf("ipv4: bad version %d", v)
	}
	hl := int(data[0]&0x0f) * 4
	if hl < IPv4HeaderLen {
		return 0, fmt.Errorf("ipv4: bad IHL %d", hl)
	}
	if len(data) < hl {
		return 0, fmt.Errorf("ipv4: truncated options: have %d want %d", len(data), hl)
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	fo := binary.BigEndian.Uint16(data[6:])
	h.Flags = uint8(fo >> 13)
	h.FragOffset = fo & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	if hl > IPv4HeaderLen {
		h.Options = append(opts[:0], data[IPv4HeaderLen:hl]...)
	} else {
		h.Options = nil
	}
	return hl, nil
}

// headerSum computes the partial checksum of the header words from the
// fields directly, with the checksum field taken as zero. It mirrors
// SerializeTo exactly, including the in-place padding of short option
// blocks, so the arithmetic path and the wire bytes can never disagree.
func (h *IPv4Header) headerSum() uint32 {
	if len(h.Options)%4 != 0 {
		pad := 4 - len(h.Options)%4
		h.Options = append(h.Options, make([]byte, pad)...)
	}
	hl := h.HeaderLen()
	sum := uint32(4<<4|uint8(hl/4))<<8 | uint32(h.TOS)
	sum += uint32(h.TotalLength)
	sum += uint32(h.ID)
	sum += uint32(uint16(h.Flags)<<13 | h.FragOffset&0x1fff)
	sum += uint32(h.TTL)<<8 | uint32(h.Protocol)
	sum += uint32(h.Src[0])<<8 | uint32(h.Src[1])
	sum += uint32(h.Src[2])<<8 | uint32(h.Src[3])
	sum += uint32(h.Dst[0])<<8 | uint32(h.Dst[1])
	sum += uint32(h.Dst[2])<<8 | uint32(h.Dst[3])
	return sum + regionSum(h.Options)
}

// VerifyChecksum reports whether the header's checksum field is correct
// for its current contents. Computed arithmetically from the fields —
// routers call this per hop per packet, so it must not serialize.
func (h *IPv4Header) VerifyChecksum() bool {
	sum := h.headerSum() + uint32(h.Checksum)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum) == 0xffff
}

// UpdateChecksum recomputes the header checksum for the current field
// values.
func (h *IPv4Header) UpdateChecksum() {
	h.Checksum = foldChecksum(h.headerSum())
}

// DecrementTTL drops TTL by one and incrementally updates the header
// checksum (RFC 1141), exactly as forwarding routers do — so a
// deliberately wrong checksum stays exactly as wrong at every hop.
func (h *IPv4Header) DecrementTTL() {
	h.TTL--
	// The TTL is the high byte of header word 8; decrementing it by
	// one decreases that word by 0x0100. One's-complement arithmetic:
	// ~C' = ~C + ~m + m' where the word m goes to m' = m - 0x0100.
	sum := uint32(h.Checksum) + 0x0100
	sum += sum >> 16
	h.Checksum = uint16(sum)
}

// Clone returns a deep copy of the header.
func (h *IPv4Header) Clone() IPv4Header {
	c := *h
	if h.Options != nil {
		c.Options = append([]byte(nil), h.Options...)
	}
	return c
}
