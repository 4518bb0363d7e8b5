package ids

import "hash/maphash"

// nameIndex resolves login names to descriptor positions without
// holding a pointer: an open-addressing table of descriptor index+1
// (0 marks an empty slot), probed linearly and kept at most half full.
// The names themselves live in the descriptors, so a slot is 4 bytes
// the garbage collector never scans. Root has no descriptor and is not
// indexed; the registry resolves "root" before probing.
//
// Registrations only append, and Reset drops the newest ones, so the
// index never deletes an arbitrary entry: rewinding it is clearing the
// table and reinserting the descriptors that remain.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32 // len is a power of two
}

// minNameSlots is the size of an empty registry's table.
const minNameSlots = 8

func newNameIndex() nameIndex {
	return nameIndex{seed: maphash.MakeSeed(), slots: make([]uint32, minNameSlots)}
}

// find returns the slot holding name, or the empty slot an insert of
// name would take. descs must back every occupied slot.
func (x *nameIndex) find(descs []userDesc, name string) (slot int, found bool) {
	mask := uint64(len(x.slots) - 1)
	for i := maphash.String(x.seed, name) & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return int(i), false
		}
		if descs[v-1].name == name {
			return int(i), true
		}
	}
}

// add indexes the last descriptor, whose name find placed at slot. An
// insert that would take the table past half full doubles it instead.
func (x *nameIndex) add(descs []userDesc, slot int) {
	if 2*len(descs) > len(x.slots) {
		x.slots = make([]uint32, 2*len(x.slots))
		x.fill(descs)
		return
	}
	x.slots[slot] = uint32(len(descs))
}

// fill inserts descs into an empty table in order, which gives the
// layout inserting them one by one would.
func (x *nameIndex) fill(descs []userDesc) {
	for i := range descs {
		slot, _ := x.find(descs, descs[i].name)
		x.slots[slot] = uint32(i + 1)
	}
}

// reset empties the table and indexes descs again. The table keeps its
// size, so reset never allocates and the next trial's registrations
// reuse it; it costs one memclr of the table plus one insert per
// remaining descriptor.
func (x *nameIndex) reset(descs []userDesc) {
	clear(x.slots)
	x.fill(descs)
}
