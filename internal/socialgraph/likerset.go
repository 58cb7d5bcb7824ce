package socialgraph

import (
	"math"
	"math/bits"

	"repro/internal/ids"
)

// likerSet is a like history's idempotency set: the serials of the
// accounts that like the object (see accountSerial) in an open-addressed
// table of uint32, probed linearly from a Fibonacci hash. A map would
// spend 25–40 bytes per retained like on buckets and spare capacity; the
// table spends 4 per slot. Slot value 0 is empty: ids.Minter numbers
// from 1, and has and remove read a key of 0 as absent. The table is a
// power of two long, starts at likerSetMinSlots and doubles before an
// insert would fill more than ¾ of it; deletion leaves no tombstones
// (see remove).
type likerSet struct {
	slots []uint32
	n     int   // occupied slots
	shift uint8 // 32 − log2(len(slots))
}

const likerSetMinSlots = 8

// accountSerial returns the serial n of a minted account number,
// KindAccount·10¹⁵+n (see ids.Minter.Next), and whether num is one whose
// serial fits a likerSet slot (0 < n < 2³²). Post, comment, app and page
// numbers report false, so no object ID can alias an account's serial.
func accountSerial(num uint64) (uint32, bool) {
	const span = 1e15 // ids.Minter's per-kind number range
	if num/span != uint64(ids.KindAccount) {
		return 0, false
	}
	n := num % span
	if n == 0 || n > math.MaxUint32 {
		return 0, false
	}
	return uint32(n), true
}

// home is k's first probe slot: the top log2(len(slots)) bits of k times
// 2³²/φ.
func (s *likerSet) home(k uint32) uint32 { return (k * 0x9E3779B1) >> s.shift }

// add inserts k if absent and reports whether it did. A duplicate costs
// one probe run and never grows the table.
func (s *likerSet) add(k uint32) bool {
	if s.slots == nil {
		s.grow()
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			if 4*(s.n+1) > 3*len(s.slots) {
				s.grow()
				s.place(k)
			} else {
				s.slots[i] = k
			}
			s.n++
			return true
		}
	}
}

// has reports whether k is in the set.
func (s *likerSet) has(k uint32) bool {
	if s.n == 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			return false
		case k:
			return true
		}
	}
}

// remove deletes k and reports whether it was present. Each later entry
// of k's probe run moves back into the hole unless its home slot lies
// cyclically after the hole, where a lookup would no longer pass it.
func (s *likerSet) remove(k uint32) bool {
	if s.n == 0 || k == 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	hole := s.home(k)
	for ; s.slots[hole] != k; hole = (hole + 1) & mask {
		if s.slots[hole] == 0 {
			return false
		}
	}
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-hole)&mask {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
	s.n--
	return true
}

// clear empties the set and keeps its table: a retired like history is
// pooled, and re-liking a swept object should not regrow it.
func (s *likerSet) clear() {
	clear(s.slots)
	s.n = 0
}

// grow doubles the table, or makes the first one, and re-places every
// entry.
func (s *likerSet) grow() {
	old := s.slots
	size := max(2*len(old), likerSetMinSlots)
	s.slots = make([]uint32, size)
	s.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.place(k)
		}
	}
}

// place puts k, known absent, in the first empty slot of its probe run.
func (s *likerSet) place(k uint32) {
	mask := uint32(len(s.slots) - 1)
	i := s.home(k)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}
