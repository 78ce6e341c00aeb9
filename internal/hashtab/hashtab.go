// Package hashtab implements the bucketed hash-table access-history store the
// paper discusses as the middle ground between shadow memory and signatures
// (§III-B): exact like shadow memory, bounded directory like a signature, but
// "incurs additional time overhead since when more than one address is hashed
// into the same bucket, the bucket has to be searched for the address in
// question." The paper measured this approach 1.5–3.7× slower than
// signatures; the store-ablation benchmark reproduces that comparison.
package hashtab

import (
	"fmt"

	"ddprof/internal/sig"
)

func init() {
	sig.Register(sig.Backend{
		Name: "hashtab",
		New: func(sp sig.Spec) (sig.Store, error) {
			if err := sp.Only("buckets"); err != nil {
				return nil, err
			}
			buckets, err := sp.Int("buckets", sp.SlotsDefault(1<<16))
			if err != nil {
				return nil, err
			}
			if buckets < 1 {
				return nil, fmt.Errorf("sig: backend hashtab: buckets = %d; want >= 1", buckets)
			}
			return New(buckets), nil
		},
	})
}

type entry struct {
	addr  uint64
	write sig.Slot
	read  sig.Slot
	next  *entry
}

// Table is an exact chained hash table implementing sig.Store.
type Table struct {
	buckets []*entry
	mask    uint64
	entries uint64
}

// New returns a table with the given number of buckets, rounded up to a
// power of two.
func New(buckets int) *Table {
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &Table{buckets: make([]*entry, n), mask: uint64(n - 1)}
}

func (t *Table) hash(addr uint64) uint64 {
	h := addr
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h & t.mask
}

// find walks the bucket chain — the extra work signatures avoid.
func (t *Table) find(addr uint64, alloc bool) *entry {
	i := t.hash(addr)
	for e := t.buckets[i]; e != nil; e = e.next {
		if e.addr == addr {
			return e
		}
	}
	if !alloc {
		return nil
	}
	e := &entry{addr: addr, next: t.buckets[i]}
	t.buckets[i] = e
	t.entries++
	return e
}

// LookupWrite implements sig.Store.
func (t *Table) LookupWrite(addr uint64) (sig.Slot, bool) {
	if e := t.find(addr, false); e != nil && !e.write.Empty() {
		return e.write, true
	}
	return sig.Slot{}, false
}

// LookupRead implements sig.Store.
func (t *Table) LookupRead(addr uint64) (sig.Slot, bool) {
	if e := t.find(addr, false); e != nil && !e.read.Empty() {
		return e.read, true
	}
	return sig.Slot{}, false
}

// SetWrite implements sig.Store.
func (t *Table) SetWrite(addr uint64, s sig.Slot) { t.find(addr, true).write = s }

// SetRead implements sig.Store.
func (t *Table) SetRead(addr uint64, s sig.Slot) { t.find(addr, true).read = s }

// Remove implements sig.Store: the entry is unlinked, genuinely freeing its
// state (unlike a signature, removal here is exact).
func (t *Table) Remove(addr uint64) {
	i := t.hash(addr)
	for pp := &t.buckets[i]; *pp != nil; pp = &(*pp).next {
		if (*pp).addr == addr {
			*pp = (*pp).next
			t.entries--
			return
		}
	}
}

// Bytes implements sig.Store: directory plus chained entries.
func (t *Table) Bytes() uint64 {
	const perEntry = 8 + 24 + 24 + 8
	return uint64(len(t.buckets))*8 + t.entries*perEntry
}

// ModeledBytes implements sig.Store; exact stores have no separate model.
func (t *Table) ModeledBytes() uint64 { return t.Bytes() }

// Entries returns the number of distinct addresses stored.
func (t *Table) Entries() int { return int(t.entries) }
