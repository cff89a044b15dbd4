package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},   // reaches past the parent: clipped
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 40},   // covers a entirely
		{ID: 6, Parent: 3, Name: "b1", Start: 100, End: 110}, // outside b: covers nothing
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 40, 5: 30, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin(1, 0, "x"); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	off.end(0)
	if off.add(1, 0, "x", time.Now(), time.Now()) != 0 || off.snapshot() != nil {
		t.Error("nil recorder recorded")
	}

	rec := newRecorder()
	op := rec.begin(7, 0, "op")
	child := rec.begin(7, op, "child")
	rec.end(child)
	rec.end(op)
	srv := rec.add(7, child, "server.stage", rec.t0.Add(time.Millisecond), rec.t0.Add(3*time.Millisecond))
	spans := rec.snapshot()
	if len(spans) != 3 || spans[1].Parent != op || spans[2].ID != srv || spans[2].dur() != 2e6 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name string `json:"name"`
		Self *int64 `json:"self_ns"`
	}
	if err := json.Unmarshal(data, &rows); err != nil || len(rows) != 3 || rows[0].Self == nil {
		t.Fatalf("spans file: %v %+v", err, rows)
	}
}
