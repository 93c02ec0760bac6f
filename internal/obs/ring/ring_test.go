package ring

import (
	"reflect"
	"sync"
	"testing"
)

func TestRingEvictsOldestNewestFirst(t *testing.T) {
	r := New[uint64](3)
	for i := uint64(1); i <= 5; i++ {
		r.Push(i)
	}
	got := r.Newest()
	if len(got) != 3 || r.Len() != 3 {
		t.Fatalf("ring holds %d values, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i] != want {
			t.Fatalf("newest[%d] = %d, want %d (newest first)", i, got[i], want)
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	r := New[int](4)
	if got := r.Newest(); got == nil || len(got) != 0 {
		t.Fatalf("empty ring: Newest() = %#v, want a non-nil empty slice", got)
	}
	// Partially filled, exactly full, then every slot overwritten more
	// than once: the order stays newest first at every step.
	var want []int
	for i := 1; i <= 11; i++ {
		r.Push(i)
		want = append([]int{i}, want...)
		if len(want) > 4 {
			want = want[:4]
		}
		if got := r.Newest(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d pushes: Newest() = %v, want %v", i, got, want)
		}
		if r.Len() != len(want) {
			t.Fatalf("after %d pushes: Len() = %d, want %d", i, r.Len(), len(want))
		}
		if r.Total() != uint64(i) {
			t.Fatalf("after %d pushes: Total() = %d, want %d (evicted included)", i, r.Total(), i)
		}
	}
}

func TestRingCapacityBelowOne(t *testing.T) {
	for _, n := range []int{0, -3} {
		r := New[string](n)
		r.Push("a")
		r.Push("b")
		if got := r.Newest(); !reflect.DeepEqual(got, []string{"b"}) || r.Total() != 2 {
			t.Fatalf("New(%d): Newest() = %v, Total() = %d; want [b], 2", n, got, r.Total())
		}
	}
}

func TestRingNewestIsACopy(t *testing.T) {
	r := New[int](2)
	r.Push(1)
	got := r.Newest()
	got[0] = 99
	if r.Newest()[0] != 1 {
		t.Fatalf("writing to Newest()'s result changed the ring")
	}
}

func TestRingEachStopsEarlyAndMutatesInPlace(t *testing.T) {
	r := New[int](3)
	for i := 1; i <= 5; i++ {
		r.Push(i) // holds 5, 4, 3
	}
	var seen []int
	r.Each(func(v *int) bool {
		seen = append(seen, *v)
		if *v == 4 {
			*v = 40
			return false
		}
		return true
	})
	if !reflect.DeepEqual(seen, []int{5, 4}) {
		t.Fatalf("Each visited %v, want [5 4] (newest first, stop on false)", seen)
	}
	if got := r.Newest(); !reflect.DeepEqual(got, []int{5, 40, 3}) {
		t.Fatalf("after Each: Newest() = %v, want [5 40 3]", got)
	}
}

func TestRingPushAllocFreeOnceFull(t *testing.T) {
	type entry struct {
		name string
		n    int
	}
	r := New[entry](8)
	for i := 0; i < 8; i++ {
		r.Push(entry{"x", i})
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Push(entry{"y", 1}) }); allocs != 0 {
		t.Fatalf("Push on a full ring allocates %v times, want 0", allocs)
	}
}

// TestRingConcurrentPushNewest pushes from several goroutines while others
// read; run with -race. Every snapshot must be newest first per writer.
func TestRingConcurrentPushNewest(t *testing.T) {
	const writers, perWriter = 4, 500
	r := New[[2]int](16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Push([2]int{w, i})
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for k := 0; k < 2; k++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				last := map[int]int{}
				for _, v := range r.Newest() {
					if prev, ok := last[v[0]]; ok && v[1] >= prev {
						t.Errorf("writer %d: %d after %d, want newest first", v[0], v[1], prev)
						return
					}
					last[v[0]] = v[1]
				}
				_ = r.Len()
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if r.Total() != writers*perWriter || r.Len() != 16 {
		t.Fatalf("Total() = %d, Len() = %d; want %d, 16", r.Total(), r.Len(), writers*perWriter)
	}
}
