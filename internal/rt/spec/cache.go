// FME1 cache-coherence messages. Workers advertise which blocks they cached
// (and evicted) after each task so the coordinator can maintain a residency
// ledger; the coordinator pushes invalidations when a binding's epoch
// changes. The encoding is hand-rolled varint binary — deterministic and
// self-contained, so the messages round-trip bit-exactly for arbitrary
// (including negative) coordinates, which the property tests exercise.

package spec

import (
	"encoding/binary"
	"fmt"

	"fuseme/internal/blockcache"
)

// CacheAdvert is a worker → coordinator report of the cache mutations one
// task performed: keys newly added, keys evicted for budget, and the
// worker's resident byte count after the task.
type CacheAdvert struct {
	Added         []blockcache.Key
	Evicted       []blockcache.Key
	ResidentBytes int64
}

// Empty reports whether the advert carries no mutations.
func (a *CacheAdvert) Empty() bool { return len(a.Added) == 0 && len(a.Evicted) == 0 }

// CacheInvalidate is a coordinator → worker order to drop every cached block
// of Node whose epoch is older than Epoch (Epoch 0: drop all of Node's
// blocks).
type CacheInvalidate struct {
	Node  int
	Epoch uint64
}

func appendKey(b []byte, k blockcache.Key) []byte {
	b = binary.AppendVarint(b, int64(k.Node))
	b = binary.AppendUvarint(b, k.Epoch)
	b = binary.AppendVarint(b, int64(k.BI))
	b = binary.AppendVarint(b, int64(k.BJ))
	return b
}

type keyReader struct {
	buf []byte
	err error
}

func (r *keyReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("spec: truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *keyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("spec: truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *keyReader) key() blockcache.Key {
	return blockcache.Key{
		Node:  int(r.varint()),
		Epoch: r.uvarint(),
		BI:    int(r.varint()),
		BJ:    int(r.varint()),
	}
}

// EncodeCacheAdvert serialises a into the FME1 varint layout:
// len(Added), Added keys, len(Evicted), Evicted keys, ResidentBytes.
func EncodeCacheAdvert(a *CacheAdvert) []byte {
	b := binary.AppendUvarint(nil, uint64(len(a.Added)))
	for _, k := range a.Added {
		b = appendKey(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(a.Evicted)))
	for _, k := range a.Evicted {
		b = appendKey(b, k)
	}
	b = binary.AppendVarint(b, a.ResidentBytes)
	return b
}

// DecodeCacheAdvert is the inverse of EncodeCacheAdvert.
func DecodeCacheAdvert(data []byte) (*CacheAdvert, error) {
	r := &keyReader{buf: data}
	a := &CacheAdvert{}
	if n := r.uvarint(); r.err == nil {
		for i := uint64(0); i < n && r.err == nil; i++ {
			a.Added = append(a.Added, r.key())
		}
	}
	if n := r.uvarint(); r.err == nil {
		for i := uint64(0); i < n && r.err == nil; i++ {
			a.Evicted = append(a.Evicted, r.key())
		}
	}
	a.ResidentBytes = r.varint()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("spec: %d trailing bytes after cache advert", len(r.buf))
	}
	return a, nil
}

// EncodeCacheInvalidate serialises inv as varint(Node) ++ uvarint(Epoch).
func EncodeCacheInvalidate(inv CacheInvalidate) []byte {
	b := binary.AppendVarint(nil, int64(inv.Node))
	return binary.AppendUvarint(b, inv.Epoch)
}

// DecodeCacheInvalidate is the inverse of EncodeCacheInvalidate.
func DecodeCacheInvalidate(data []byte) (CacheInvalidate, error) {
	r := &keyReader{buf: data}
	inv := CacheInvalidate{Node: int(r.varint()), Epoch: r.uvarint()}
	if r.err != nil {
		return CacheInvalidate{}, r.err
	}
	if len(r.buf) != 0 {
		return CacheInvalidate{}, fmt.Errorf("spec: %d trailing bytes after cache invalidate", len(r.buf))
	}
	return inv, nil
}
