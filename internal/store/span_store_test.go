package store

import (
	"context"
	"errors"
	"testing"

	"xmlconflict/internal/telemetry/span"
)

func TestStoreSpanTree(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	tr := span.New("test")
	ctx := span.Context(context.Background(), tr.Root())

	base, err := s.CreateCtx(ctx, "d", "<a/>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCtx(ctx, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	// delete //x against the pre-insert base does not commute with the
	// intervening insert of <x/>: the store must reject it, and the span
	// tree must carry the forensics.
	_, err = s.SubmitCtx(ctx, "d", Op{Kind: "delete", Pattern: "//x", BaseLSN: base.LSN})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	tr.Finish()
	v := tr.View()

	// The successful update ran the full pipeline.
	ups := v.Root.Find("store.update")
	if len(ups) != 2 {
		t.Fatalf("store.update spans = %d, want 2", len(ups))
	}
	// FsyncAlways syncs inside the append, so there is no ack wait span.
	ok := ups[0]
	for _, name := range []string{"store.admit", "store.apply", "store.wal.append", "store.fsync"} {
		if got := ok.Find(name); len(got) != 1 {
			t.Fatalf("committed update: %s spans = %d, want 1", name, len(got))
		}
	}
	if _, has := ok.Attrs["lsn"]; !has {
		t.Fatalf("committed update span missing lsn: %+v", ok.Attrs)
	}

	// The rejected update stopped at admission, with the conflict recorded.
	rej := ups[1]
	adm := rej.Find("store.admit")
	if len(adm) != 1 {
		t.Fatalf("rejected update: store.admit spans = %d", len(adm))
	}
	a := adm[0]
	if a.Attrs["conflict"] != true {
		t.Fatalf("admit span not marked conflicting: %+v", a.Attrs)
	}
	for _, key := range []string{"sem", "fired", "with_lsn", "with_kind", "base_lsn"} {
		if _, has := a.Attrs[key]; !has {
			t.Fatalf("admit span missing %q: %+v", key, a.Attrs)
		}
	}
	if got := rej.Find("store.wal.append"); len(got) != 0 {
		t.Fatal("rejected update must not reach the WAL")
	}
	// The whole trace is flagged for the flight recorder's conflict ring.
	found := false
	for _, f := range v.Flags {
		if f == "conflict" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace flags = %v, want conflict", v.Flags)
	}

	// Create and fsync are visible too.
	if got := v.Root.Find("store.create"); len(got) != 1 {
		t.Fatalf("store.create spans = %d, want 1", len(got))
	}
	if got := v.Root.Find("store.fsync"); len(got) < 2 {
		t.Fatalf("store.fsync spans = %d, want >= 2 (create + committed update)", len(got))
	}
}

func TestStoreSpanGroupCommitAck(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncGroup})
	tr := span.New("test")
	ctx := span.Context(context.Background(), tr.Root())
	if _, err := s.CreateCtx(ctx, "d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCtx(ctx, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	// Group commit acknowledges after the covering fsync: the wait is a
	// visible store.ack span on both the create and the update.
	if got := tr.View().Root.Find("store.ack"); len(got) < 2 {
		t.Fatalf("store.ack spans = %d, want >= 2", len(got))
	}
}

func TestStoreUntracedSubmitUnchanged(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustCreate(t, s, "d", "<a/>")
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCtx(context.Background(), "d", Op{Kind: "read", Pattern: "//x"}); err != nil {
		t.Fatal(err)
	}
}
