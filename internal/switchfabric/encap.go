package switchfabric

import (
	"encoding/binary"
	"errors"

	"typhoon/internal/packet"
)

// Tunnel encapsulation: frames leaving through a tunnel port are wrapped
// with the destination host name chosen by the set_tun_dst action, hiding
// the Typhoon frame format from the underlying network exactly as the
// prototype's host-level TCP tunnels do (§3.3.1).
//
// Layout: hostLen(2, big endian) host frame.

// ErrBadEncap is returned for malformed tunnel encapsulation.
var ErrBadEncap = errors.New("switchfabric: malformed tunnel encapsulation")

// EncapTunnel wraps a frame with its tunnel destination host. The result is
// a fresh buffer from the frame pool, owned by the caller; the tunnel
// endpoint recycles it once the inner frame is written to TCP.
func EncapTunnel(host string, frame []byte) []byte {
	out := packet.GetFrameBuf()
	out = binary.BigEndian.AppendUint16(out, uint16(len(host)))
	out = append(out, host...)
	return append(out, frame...)
}

// DecapTunnel splits an encapsulated frame into destination host and inner
// frame. The returned frame aliases raw.
func DecapTunnel(raw []byte) (host string, frame []byte, err error) {
	if len(raw) < 2 {
		return "", nil, ErrBadEncap
	}
	n := int(binary.BigEndian.Uint16(raw))
	if len(raw) < 2+n {
		return "", nil, ErrBadEncap
	}
	return string(raw[2 : 2+n]), raw[2+n:], nil
}
