package store

// boundedLog holds the newest elements pushed to it, oldest first. The
// live elements are buf[off:]: dropping the oldest only advances off
// (zeroing the slot so the GC can reclaim what it referenced), and once
// the backing array is full the live elements slide back to its front.
// The array is at least twice the limit by then, so each slide moves at
// most limit elements per limit pushes — amortized O(1) per push, and
// no allocation at steady state.
type boundedLog[T any] struct {
	buf []T
	off int
}

// items returns the live elements, oldest first. The slice is valid
// until the next push.
func (l *boundedLog[T]) items() []T { return l.buf[l.off:] }

// push appends v and drops the oldest elements beyond limit.
func (l *boundedLog[T]) push(v T, limit int) {
	if len(l.buf) == cap(l.buf) && l.off > 0 {
		live := l.buf[l.off:]
		if cap(l.buf) < 2*limit {
			l.buf = append(make([]T, 0, 2*limit), live...)
		} else {
			n := copy(l.buf, live)
			clear(l.buf[n:])
			l.buf = l.buf[:n]
		}
		l.off = 0
	}
	l.buf = append(l.buf, v)
	for len(l.buf)-l.off > limit {
		var zero T
		l.buf[l.off] = zero
		l.off++
	}
}
