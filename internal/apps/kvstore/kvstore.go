// Package kvstore implements the distributed key-value store of §7.2.2: a
// distributed hashtable (DHT) of fixed-size local volumes storing 8-byte
// integers. Inserts use atomic Compare-And-Swap and Fetch-And-Op; hash
// collisions go to an overflow heap inside the owner's local volume, whose
// next-free and last-element pointers are updated atomically. Memory
// consistency is ensured with flushes. This access mix — a put-and-get
// atomic per collision-free insert, several on collision — is the paper's
// worst case for access logging (Fig. 11c).
package kvstore

import (
	"fmt"
	"math/rand"

	"repro/internal/rma"
)

// Volume layout (in words) within each rank's window:
//
//	[0]                 next-free pointer of the overflow heap
//	[1]                 last-element pointer (index of most recent overflow cell)
//	[2 .. 2+T)          hash table: T slots, 0 = empty, otherwise the key
//	[2+T .. 2+T+2H)     overflow heap: H cells of (key, link) pairs
const (
	offNextFree = 0
	offLast     = 1
	headerWords = 2
)

// Config describes a DHT instance.
type Config struct {
	// TableSlots is T, the hash-table size per local volume.
	TableSlots int
	// HeapCells is H, the overflow-heap capacity per local volume.
	HeapCells int
	// ThinkScale and ThinkRate parametrize the exponential think time
	// f*delta*exp(-delta*x) between inserts (§7.2.2); zero disables it.
	ThinkScale float64
	ThinkRate  float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TableSlots < 1 {
		return fmt.Errorf("kvstore: table slots = %d", c.TableSlots)
	}
	if c.HeapCells < 0 {
		return fmt.Errorf("kvstore: heap cells = %d", c.HeapCells)
	}
	return nil
}

// WindowWords returns the per-rank window size the store needs.
func (c Config) WindowWords() int {
	return headerWords + c.TableSlots + 2*c.HeapCells
}

// Store is a handle bound to one rank's API.
type Store struct {
	api rma.FullAPI
	cfg Config
	rng *rand.Rand

	// Inserted counts successful inserts by this rank.
	Inserted int
	// Collisions counts inserts that went to an overflow heap.
	Collisions int
	// Failed counts inserts dropped because a heap was full.
	Failed int
}

// New binds a store to a rank. Seed fixes the think-time stream.
func New(api rma.FullAPI, cfg Config, seed int64) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Store{api: api, cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// hash is a 64-bit mix (splitmix64 finalizer).
func hash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// placement returns the rank owning a key's home volume and the key's
// table slot within it, for n ranks.
func (c Config) placement(key uint64, n int) (owner, slot int) {
	h := hash(key)
	return int(h % uint64(n)), int((h >> 17) % uint64(c.TableSlots))
}

// owner returns the rank owning a key's home volume.
func (s *Store) owner(key uint64) int {
	o, _ := s.cfg.placement(key, s.api.N())
	return o
}

// slot returns the key's table slot within its volume.
func (s *Store) slot(key uint64) int {
	_, sl := s.cfg.placement(key, s.api.N())
	return sl
}

// Insert stores a non-zero key in the DHT. The fast path is a single CAS
// into the home slot; on collision the element is appended to the owner's
// overflow heap by atomically bumping the next-free pointer, writing the
// cell, linking it to the previous last element, and updating the
// last-element pointer. Consistency is enforced with a flush (§7.2.2).
func (s *Store) Insert(key uint64) bool {
	if key == 0 {
		panic("kvstore: zero key is the empty marker")
	}
	target := s.owner(key)
	slotOff := headerWords + s.slot(key)
	prev := s.api.CompareAndSwap(target, slotOff, 0, key)
	ok := true
	switch prev {
	case 0:
		// Fast path: slot taken.
	default:
		ok = s.insertOverflow(target, key)
	}
	s.api.Flush(target)
	if ok {
		s.Inserted++
	} else {
		s.Failed++
	}
	s.think()
	return ok
}

// insertOverflow appends to the owner's overflow heap.
func (s *Store) insertOverflow(target int, key uint64) bool {
	s.Collisions++
	idx := s.api.FetchAndOp(target, offNextFree, 1, rma.OpSum)
	if int(idx) >= s.cfg.HeapCells {
		// Heap exhausted; undo not needed (pointer saturates harmlessly).
		return false
	}
	cell := headerWords + s.cfg.TableSlots + 2*int(idx)
	s.api.PutValue(target, cell, key)
	// Link to the previous last element and publish ourselves as last.
	last := s.api.FetchAndOp(target, offLast, idx+1, rma.OpReplace)
	s.api.PutValue(target, cell+1, last)
	s.api.Flush(target)
	return true
}

// Lookup reports whether the key is present (table slot or overflow scan).
func (s *Store) Lookup(key uint64) bool {
	target := s.owner(key)
	slotOff := headerWords + s.slot(key)
	if got := s.api.GetBlocking(target, slotOff, 1); got[0] == key {
		return true
	}
	n := s.api.GetBlocking(target, offNextFree, 1)[0]
	if int(n) > s.cfg.HeapCells {
		n = uint64(s.cfg.HeapCells)
	}
	if n == 0 {
		return false
	}
	heap := s.api.GetBlocking(target, headerWords+s.cfg.TableSlots, 2*int(n))
	for i := 0; i < int(n); i++ {
		if heap[2*i] == key {
			return true
		}
	}
	return false
}

// think waits the exponential think time between requests.
func (s *Store) think() {
	if s.cfg.ThinkScale <= 0 || s.cfg.ThinkRate <= 0 {
		return
	}
	x := s.rng.ExpFloat64() / s.cfg.ThinkRate
	if p, ok := s.api.(interface{ AdvanceTime(float64) }); ok {
		p.AdvanceTime(s.cfg.ThinkScale * x)
	}
}
