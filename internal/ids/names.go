package ids

import "hash/maphash"

// nameIndex resolves login names to descriptor positions without
// holding a pointer: an open-addressing table probed linearly and kept
// at most half full. Each 4-byte slot packs a descriptor position
// (index+1) in its low 24 bits with an 8-bit tag from the top of the
// name's hash; 0 marks an empty slot. The low bits of the same hash pick
// the home slot. The names live in the descriptors, so comparing one
// costs a second cache line; a probe pays it only on a tag match, which
// 255 of 256 foreign slots on the path miss. The table is a []uint32
// the garbage collector never scans. Root has no descriptor and is not
// indexed; the registry resolves "root" before probing.
//
// 24 position bits cap a registry at maxUsers registered users, which
// Register enforces with ErrRegistryFull.
//
// The table indexes descs[:kept], where kept ≥ len(descs). Registrations
// only append, and Reset truncates descs without touching the table, so
// the descriptors Reset dropped stay indexed, and a lookup that lands
// on one reports the name absent. A pooled trial re-registers the
// previous trial's names in the same order; replay lets each such
// registration reuse the next kept descriptor and its slot instead of
// hashing and probing. The first name that differs drops the kept
// descriptors and rebuilds the table from the live ones, which leaves
// the layout inserting them in order would have, with no tombstones;
// the registry's MarkPristine drops them the same way.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32 // len is a power of two
	kept  int      // the table indexes descs[:kept]
}

// minNameSlots is the size of an empty registry's table.
const minNameSlots = 8

// Slot layout: tag<<posBits | position.
const (
	posBits = 24
	posMask = 1<<posBits - 1
)

// maxUsers is the most users (root aside) a registry holds: a
// descriptor position must fit in a slot's 24 position bits.
const maxUsers = 1<<posBits - 2

// packSlot builds the slot for descriptor position pos (index+1, so
// never 0) under the given tag.
func packSlot(pos int, tag uint8) uint32 { return uint32(tag)<<posBits | uint32(pos) }

// slotPos returns the descriptor position a non-empty slot holds.
func slotPos(v uint32) int { return int(v & posMask) }

// slotTag returns the tag a non-empty slot holds.
func slotTag(v uint32) uint8 { return uint8(v >> posBits) }

// hashTag is the tag of a name hashing to h: its top 8 bits, which
// no table smaller than 2^56 slots uses for the home slot.
func hashTag(h uint64) uint8 { return uint8(h >> 56) }

func newNameIndex() nameIndex {
	return nameIndex{seed: maphash.MakeSeed(), slots: make([]uint32, minNameSlots)}
}

func (x *nameIndex) hash(name string) uint64 { return maphash.String(x.seed, name) }

// find returns the slot holding name, which hashes to h, or the empty
// slot an insert of name would take. descs must back every occupied
// slot.
func (x *nameIndex) find(descs []userDesc, name string, h uint64) (slot int, found bool) {
	mask := uint64(len(x.slots) - 1)
	tag := hashTag(h)
	for i := h & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return int(i), false
		}
		if slotTag(v) == tag && descs[slotPos(v)-1].name == name {
			return int(i), true
		}
	}
}

// lookup returns the index of name's descriptor among the live descs.
// A name whose descriptor Reset dropped is absent.
func (x *nameIndex) lookup(descs []userDesc, name string) (int, bool) {
	slot, ok := x.find(descs[:x.kept], name, x.hash(name))
	if !ok {
		return 0, false
	}
	i := slotPos(x.slots[slot]) - 1
	return i, i < len(descs)
}

// replay reports whether registering name can reuse descs[len(descs)],
// the next kept descriptor, and the slot that already indexes it. The
// kept descriptors were all live at once, so their names are distinct:
// a name equal to the next one cannot be live. Any other name drops
// the kept descriptors and rebuilds the table from descs, after which
// find and add serve the registration.
func (x *nameIndex) replay(descs []userDesc, name string) bool {
	n := len(descs)
	if n == x.kept {
		return false
	}
	if descs[:n+1][n].name == name {
		return true
	}
	x.forget(descs)
	return false
}

// forget drops the kept descriptors past descs and rebuilds the table
// from descs. It does nothing when none are kept.
func (x *nameIndex) forget(descs []userDesc) {
	n := len(descs)
	if n == x.kept {
		return
	}
	clear(descs[n:x.kept])
	x.kept = n
	clear(x.slots)
	x.fill(descs)
}

// add indexes the last descriptor, whose name hashes to h and which
// find placed at slot; the table indexed descs up to it and keeps none
// past it. An insert that would take the table past half full doubles
// it instead.
func (x *nameIndex) add(descs []userDesc, slot int, h uint64) {
	x.kept = len(descs)
	if 2*len(descs) > len(x.slots) {
		x.slots = make([]uint32, 2*len(x.slots))
		x.fill(descs)
		return
	}
	x.slots[slot] = packSlot(len(descs), hashTag(h))
}

// fill inserts descs into an empty table in order, which gives the
// layout inserting them one by one would.
func (x *nameIndex) fill(descs []userDesc) {
	for i := range descs {
		h := x.hash(descs[i].name)
		slot, _ := x.find(descs, descs[i].name, h)
		x.slots[slot] = packSlot(i+1, hashTag(h))
	}
}
