package store

import (
	"testing"
	"testing/quick"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestBoundedLogKeepsNewest(t *testing.T) {
	// Against the trim it replaces: append, then keep the last limit.
	f := func(limit uint8, pushes uint16) bool {
		lim := int(limit)%40 + 1
		var l boundedLog[int]
		var want []int
		for i := 0; i < int(pushes)%500; i++ {
			l.push(i, lim)
			want = append(want, i)
			if len(want) > lim {
				want = want[len(want)-lim:]
			}
			got := l.items()
			if len(got) != len(want) {
				return false
			}
			for k := range got {
				if got[k] != want[k] {
					return false
				}
			}
		}
		// Dropped slots hold no references.
		for _, v := range l.buf[:l.off] {
			if v != 0 {
				return false
			}
		}
		return cap(l.buf) <= 4*lim+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPushReplFrameAllocatesOnlyThePayloadCopy(t *testing.T) {
	s := &Store{opts: Options{ReplBuffer: 64}}
	payload := []byte("frame payload")
	lsn := uint64(0)
	push := func() { lsn++; s.pushReplFrame(lsn, payload) }
	for i := 0; i < 300; i++ {
		push()
	}
	// One measured run of many pushes: AllocsPerRun rounds a per-run
	// average down, which would hide an occasional reallocation.
	const pushes = 1000
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < pushes; i++ {
			push()
		}
	}); got != pushes {
		t.Fatalf("%d pushReplFrame calls on a full log: %.0f allocs, want %d (the payload copies)", pushes, got, pushes)
	}
	tail := s.replLog.items()
	if len(tail) != 64 || tail[63].LSN != lsn || tail[0].LSN != lsn-63 {
		t.Fatalf("log holds %d frames, lsns %d..%d; want 64 ending at %d", len(tail), tail[0].LSN, tail[len(tail)-1].LSN, lsn)
	}
}

func TestCommitUpdateWindowTrimAllocatesNothing(t *testing.T) {
	s := &Store{opts: Options{HistoryWindow: 32}}
	tr := xmltree.MustParse("<r/>")
	d := &doc{id: "d", tree: tr}
	var u ops.Update = ops.Insert{P: xpath.MustParse("/r"), X: xmltree.MustParse("<b/>")}
	lsn := uint64(0)
	commit := func() { lsn++; s.commitUpdate(d, lsn, "insert", u, tr, "digest") }
	for i := 0; i < 200; i++ {
		commit()
	}
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			commit()
		}
	}); got != 0 {
		t.Fatalf("1000 commitUpdate calls on a full window: %.0f allocs, want 0", got)
	}
	hist := d.hist.items()
	if len(hist) != 32 || hist[31].lsn != lsn || hist[0].lsn != lsn-31 {
		t.Fatalf("window holds %d entries ending at lsn %d; want 32 ending at %d", len(hist), hist[len(hist)-1].lsn, lsn)
	}
}
