package probe

import "testing"

func TestStepTable(t *testing.T) {
	wantIndex := map[Step]int{
		StepInit: 0, StepGetClientHello: 1, StepSendServerHello: 2,
		StepSendServerCert: 3, StepSendServerKX: 3, StepSendServerDone: 4,
		StepGetClientKX: 5, StepGenKeyBlock: 6, StepGetFinished: 6,
		StepSendCipherSpec: 7, StepSendFinished: 8, StepServerFlush: 9,
	}
	seen := map[string]bool{}
	for _, st := range Steps() {
		if got := st.Index(); got != wantIndex[st] {
			t.Errorf("%s: index %d, want %d", st.Name(), got, wantIndex[st])
		}
		if st.Name() == "" {
			t.Errorf("step %d has no name", st)
		}
		if st.Desc() == "" {
			t.Errorf("%s has no description", st.Name())
		}
		if seen[st.Name()] {
			t.Errorf("duplicate step name %q", st.Name())
		}
		seen[st.Name()] = true
	}
	if StepNone.Index() != -1 || StepNone.Name() != "" {
		t.Errorf("StepNone = (%d, %q), want (-1, \"\")", StepNone.Index(), StepNone.Name())
	}
}

func TestCategoryOfCoversAllFns(t *testing.T) {
	fns := map[string]string{
		FnRSAPrivateDecrypt: CategoryPublic,
		FnRSASign:           CategoryPublic,
		FnDHGenerateKey:     CategoryPublic,
		FnDHComputeKey:      CategoryPublic,
		FnPriDecryption:     CategoryPrivate,
		FnPriEncryption:     CategoryPrivate,
		FnFinishMac:         CategoryHash,
		FnFinalFinishMac:    CategoryHash,
		FnMac:               CategoryHash,
		FnGenMasterSecret:   CategoryHash,
		FnGenKeyBlock:       CategoryHash,
		FnInitFinishedMac:   CategoryHash,
		FnRandPseudoBytes:   CategoryOther,
		FnX509:              CategoryOther,
	}
	for fn, want := range fns {
		if got := CategoryOf(fn); got != want {
			t.Errorf("CategoryOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRecordOpStepFn(t *testing.T) {
	cases := map[RecordOp]string{
		OpCipherEncrypt: FnPriEncryption,
		OpCipherDecrypt: FnPriDecryption,
		OpMACCompute:    FnMac,
		OpMACVerify:     FnMac,
	}
	for op, want := range cases {
		if got := op.StepFn(); got != want {
			t.Errorf("%s.StepFn() = %q, want %q", op, got, want)
		}
	}
}

// recordingSink captures events tagged with its id.
type recordingSink struct {
	id  int
	log *[]struct {
		sink int
		e    Event
	}
}

func (s recordingSink) Emit(e Event) {
	*s.log = append(*s.log, struct {
		sink int
		e    Event
	}{s.id, e})
}

func TestNewBusFiltersNilSinks(t *testing.T) {
	if b := NewBus(nil); b != nil {
		t.Error("NewBus(nil) should be nil")
	}
	var log []struct {
		sink int
		e    Event
	}
	b := NewBus(recordingSink{7, &log})
	b.RecordIO(true, false, 5)
	if len(log) != 1 || log[0].sink != 7 {
		t.Fatalf("event not delivered to the sink: %+v", log)
	}
}

func TestStepCursorAttribution(t *testing.T) {
	var log []struct {
		sink int
		e    Event
	}
	b := NewBus(recordingSink{0, &log})
	// Record crypto outside any step stays unattributed.
	b.RecordCrypto(OpMACCompute, "MD5", 10, b.Stamp())
	b.StepEnter(StepSendFinished)
	b.RecordCrypto(OpCipherEncrypt, "RC4", 20, b.Stamp())
	// Entering a new step auto-closes the previous one.
	b.StepEnter(StepServerFlush)
	b.StepExit()
	b.RecordCrypto(OpMACVerify, "MD5", 30, b.Stamp())

	var got []Step
	for _, entry := range log {
		if entry.e.Kind == KindRecordCrypto {
			got = append(got, entry.e.Step)
		}
	}
	want := []Step{StepNone, StepSendFinished, StepNone}
	if len(got) != len(want) {
		t.Fatalf("got %d record events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record event %d attributed to %q, want %q", i, got[i].Name(), want[i].Name())
		}
	}
	// The auto-close emitted exactly two StepExit events.
	var exits int
	for _, entry := range log {
		if entry.e.Kind == KindStepExit {
			exits++
		}
	}
	if exits != 2 {
		t.Errorf("got %d step exits, want 2", exits)
	}
}

// lifecycle walks a connection's whole life on b.
func lifecycle(b *Bus) {
	b.ConnOpen("server", "10.0.0.1:1")
	b.HandshakeStart("server")
	b.StepEnter(StepGetClientHello)
	b.StepSuspend()
	b.StepResume()
	b.StepExit()
	b.HandshakeDone("RC4-MD5", 0x0300, false)
	b.HandshakeFail(FailIOEOF, "io_eof", "EOF")
	b.AppIO(true, 64, b.Stamp())
	b.ConnClose()
}

// The lifecycle kinds reach every sink stamped with the ID the open
// drew — a fresh one per connection, kept when the sinks are swapped —
// and emitting them allocates nothing, on a live bus or a nil one.
func TestLifecycleEventsCarryOneConnID(t *testing.T) {
	var got []Event
	sink := SinkFunc(func(e Event) { got = append(got, e) })
	if sink.Observe() == nil {
		t.Fatal("SinkFunc declined a connection")
	}
	first := NewBus(sink)
	lifecycle(first)
	want := []Kind{KindConnOpen, KindHandshakeStart, KindStepEnter, KindHandshakeSuspend,
		KindHandshakeResume, KindStepExit, KindHandshakeDone, KindHandshakeFail, KindAppIO, KindConnClose}
	if len(got) != len(want) {
		t.Fatalf("saw %d events, want %d", len(got), len(want))
	}
	id := got[0].Conn
	for i, e := range got {
		if e.Kind != want[i] || e.Conn != id || id == 0 {
			t.Fatalf("event %d = kind %d conn %d, want kind %d conn %d", i, e.Kind, e.Conn, want[i], id)
		}
	}
	if open, fail := got[0], got[7]; open.Fn != "server" || open.Detail != "10.0.0.1:1" ||
		fail.Class != FailIOEOF || fail.Fn != "io_eof" || fail.Detail != "EOF" {
		t.Fatalf("open %+v / fail %+v lost their fields", open, fail)
	}

	got = got[:0]
	NewBus(sink).ConnOpen("client", "")
	if got[0].Conn <= id {
		t.Fatalf("second connection drew ID %d after %d", got[0].Conn, id)
	}

	for name, b := range map[string]*Bus{"live": NewBus(SinkFunc(func(Event) {})), "nil": nil} {
		if a := testing.AllocsPerRun(100, func() { lifecycle(b) }); a != 0 {
			t.Errorf("%s bus: a connection's lifecycle allocates %.1f times, want 0", name, a)
		}
	}
}

func TestNilBusZeroAllocs(t *testing.T) {
	var b *Bus
	allocs := testing.AllocsPerRun(200, func() {
		b.StepEnter(StepInit)
		b.Crypto(FnFinishMac, func() {})
		_ = b.CryptoErr(FnGenKeyBlock, func() error { return nil })
		b.StepExit()
		b.RecordCrypto(OpMACCompute, "MD5", 64, b.Stamp())
		b.RecordIO(true, false, 64)
		b.StepSuspend()
		b.StepResume()
		b.ConnOpen("server", "")
		b.HandshakeStart("server")
		b.HandshakeDone("RC4-MD5", 0x0300, false)
		b.HandshakeFail(FailIOEOF, "io_eof", "EOF")
		b.AppIO(true, 64, b.Stamp())
		b.ConnClose()
	})
	if allocs != 0 {
		t.Fatalf("nil bus allocated %.1f times per run, want 0", allocs)
	}
}

func TestNilBusRunsFunctions(t *testing.T) {
	var b *Bus
	ran := 0
	b.Crypto("x", func() { ran++ })
	if err := b.CryptoErr("y", func() error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("nil bus ran %d of 2 functions", ran)
	}
}
