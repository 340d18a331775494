package axiom

import (
	"io"
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// fuzzEventBytes is how many input bytes encode one event.
const fuzzEventBytes = 8

// decodeRecording turns fuzz input into a recording of up to 16 events.
// Each event takes 8 bytes: kind, order, thread, po index, location,
// stamp, rf source and the read/written values, with the signed fields
// free to name negative or out-of-range ids. Every SC-ordered event joins
// the SC order. Up to 8 byte pairs after the events each add an SC order
// entry, a spawn link or a join link naming any event.
func decodeRecording(data []byte) *engine.Recording {
	n := min(len(data)/fuzzEventBytes, 16)
	rec := &engine.Recording{}
	for i := 0; i < n; i++ {
		b := data[i*fuzzEventBytes:]
		ev := memmodel.Event{
			ID:    memmodel.EventID(i),
			TID:   memmodel.ThreadID(int8(b[2])),
			Index: int(int8(b[3])),
			Label: memmodel.Label{
				Kind:  memmodel.Kind(b[0] % uint8(memmodel.KindAssert+1)),
				Order: memmodel.Order(b[1] % uint8(memmodel.SeqCst+1)),
				Loc:   memmodel.Loc(int8(b[4])),
				RVal:  memmodel.Value(b[7] & 15),
				WVal:  memmodel.Value(b[7] >> 4),
			},
			Stamp:     memmodel.TS(int8(b[5])),
			ReadsFrom: memmodel.EventID(int8(b[6])),
		}
		rec.Events = append(rec.Events, ev)
		if ev.Label.Order.IsSC() {
			rec.SCOrder = append(rec.SCOrder, ev.ID)
		}
	}
	rest := data[n*fuzzEventBytes:]
	for i := 0; i+1 < len(rest) && i < 16; i += 2 {
		v := int8(rest[i+1])
		switch rest[i] % 3 {
		case 0:
			rec.SCOrder = append(rec.SCOrder, memmodel.EventID(v))
		case 1:
			rec.SpawnLinks = append(rec.SpawnLinks, engine.SpawnLink{From: memmodel.EventID(v), Child: memmodel.ThreadID(v & 3)})
		case 2:
			rec.JoinLinks = append(rec.JoinLinks, engine.JoinLink{Child: memmodel.ThreadID(v & 3), To: memmodel.EventID(v)})
		}
	}
	return rec
}

// FuzzFromRecording: any recording either builds a graph or is rejected
// with an error, and every model's checker and both renderings return on
// a graph that builds.
func FuzzFromRecording(f *testing.F) {
	// A read whose rf source lies past the end of a two-event recording.
	f.Add([]byte{
		byte(memmodel.KindWrite), byte(memmodel.Relaxed), 1, 0, 1, 1, 0xff, 0,
		byte(memmodel.KindRead), byte(memmodel.Relaxed), 2, 0, 1, 0, 7, 0,
	})
	// An acq-rel RMW reading from itself.
	f.Add([]byte{byte(memmodel.KindRMW), byte(memmodel.AcqRel), 1, 0, 1, 1, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromRecording(decodeRecording(data))
		if err != nil {
			return
		}
		for _, m := range engine.Models() {
			g.CheckModel(m)
		}
		if err := g.WriteText(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteDot(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	})
}
