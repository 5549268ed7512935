// Package probe is the single instrumentation spine of the SSL stack.
//
// The paper's contribution is attribution: the same handshake steps
// and crypto calls must produce the Table 2/3 shares whichever tool
// measures them. This package makes that a structural property. The
// hot path (connection, handshake FSM, record layer) emits
// typed events onto a Bus — one timestamp and one connection ID per
// event, one nil test on the fast path — and every consumer (the live
// connection table and, through it, the metrics registry's Tables 2
// and 3 that both /debug/anatomy and the offline experiments render)
// reads that one stream through the one Sink the connection's bus
// carries, handed to the connection by the Observer on its Config;
// nothing reaches a consumer any other way. The surfaces cannot
// disagree because they no longer measure independently.
//
// The canonical Table 2 step enum lives here too: the experiments,
// /debug/anatomy, and the Chrome trace export all render step
// names through Step.Name, so a renamed step is a compile-time event,
// not a silent attribution drift.
package probe

import (
	"fmt"
	"time"
)

// Step is one of the paper's ten server handshake steps (Table 2).
// The zero value StepNone means "outside any step" — e.g. bulk-phase
// record work.
type Step uint8

// Canonical Table 2 steps in execution order of a full handshake.
// StepSendServerKX shares row 3 with StepSendServerCert (DHE suites
// send both); StepGenKeyBlock shares row 6 with StepGetFinished (the
// resumed path splits them).
const (
	StepNone Step = iota
	StepInit
	StepGetClientHello
	StepSendServerHello
	StepSendServerCert
	StepSendServerKX
	StepSendServerDone
	StepGetClientKX
	StepGenKeyBlock
	StepGetFinished
	StepSendCipherSpec
	StepSendFinished
	StepServerFlush
	stepCount
)

// stepInfo is the one table every rendering surface draws from.
var stepInfo = [stepCount]struct {
	index int
	name  string
	desc  string
}{
	StepNone:            {-1, "", ""},
	StepInit:            {0, "init", "initialize states and variables"},
	StepGetClientHello:  {1, "get_client_hello", "check version, get client random, choose cipher"},
	StepSendServerHello: {2, "send_server_hello", "generate server random, send server hello"},
	StepSendServerCert:  {3, "send_server_cert", "send server certificate"},
	StepSendServerKX:    {3, "send_server_kx", "generate ephemeral DH key, sign params, send"},
	StepSendServerDone:  {4, "send_server_done", "send server done, flush, check client hello"},
	StepGetClientKX:     {5, "get_client_kx", "rsa-decrypt pre-master, generate master key"},
	StepGenKeyBlock:     {6, "gen_key_block", "regenerate key block from cached master"},
	StepGetFinished:     {6, "get_cipher_spec/get_finished", "read client CCS, generate key block, verify client finished"},
	StepSendCipherSpec:  {7, "send_cipher_spec", "send server change cipher spec"},
	StepSendFinished:    {8, "send_finished", "calculate server finish hashes, mac, encrypt, send"},
	StepServerFlush:     {9, "server_flush", "check state; flush internal buffers; end"},
}

// Index returns the step's Table 2 row number (0–9), or −1 for
// StepNone.
func (s Step) Index() int {
	if s >= stepCount {
		return -1
	}
	return stepInfo[s].index
}

// Name returns the step's canonical OpenSSL-style name — the exact
// string Table 2 uses. StepNone renders as "".
func (s Step) Name() string {
	if s >= stepCount {
		return fmt.Sprintf("step(%d)", uint8(s))
	}
	return stepInfo[s].name
}

// Desc returns the step's one-line description.
func (s Step) Desc() string {
	if s >= stepCount {
		return ""
	}
	return stepInfo[s].desc
}

// Steps returns the canonical steps in full-handshake execution
// order (the order Table 2 lists them, DHE and resumed variants
// included).
func Steps() []Step {
	return []Step{
		StepInit, StepGetClientHello, StepSendServerHello,
		StepSendServerCert, StepSendServerKX, StepSendServerDone,
		StepGetClientKX, StepGenKeyBlock, StepGetFinished,
		StepSendCipherSpec, StepSendFinished, StepServerFlush,
	}
}

// Crypto function names used in step attributions, matching the
// OpenSSL symbols of the paper's Table 2.
const (
	FnInitFinishedMac   = "init_finished_mac"
	FnRandPseudoBytes   = "rand_pseudo_bytes"
	FnFinishMac         = "finish_mac"
	FnX509              = "X509 functions"
	FnRSAPrivateDecrypt = "rsa_private_decryption"
	FnGenMasterSecret   = "gen_master_secret"
	FnGenKeyBlock       = "gen_key_block"
	FnFinalFinishMac    = "final_finish_mac"
	FnPriDecryption     = "pri_decryption"
	FnMac               = "mac"
	FnPriEncryption     = "pri_encryption"
	// DHE-suite functions (ServerKeyExchange path).
	FnDHGenerateKey = "dh_generate_key"
	FnRSASign       = "rsa_sign"
	FnDHComputeKey  = "dh_compute_key"
)

// Crypto-operation categories for Table 3.
const (
	CategoryPublic  = "public key encryption"
	CategoryPrivate = "private key encryption"
	CategoryHash    = "hash functions"
	CategoryOther   = "other functions"
)

// CategoryOf maps a crypto function name (the Fn* constants) onto its
// Table 3 category. Every consumer shares this mapping: the metrics
// registry's Table 3 rows and the experiments' crypto split.
func CategoryOf(fn string) string {
	switch fn {
	case FnRSAPrivateDecrypt, FnRSASign, FnDHGenerateKey, FnDHComputeKey:
		return CategoryPublic
	case FnPriDecryption, FnPriEncryption:
		return CategoryPrivate
	case FnFinishMac, FnFinalFinishMac, FnMac, FnGenMasterSecret,
		FnGenKeyBlock, FnInitFinishedMac:
		return CategoryHash
	default:
		return CategoryOther
	}
}

// RecordOp identifies a record-layer crypto operation.
type RecordOp int

// Observable record-layer crypto operations.
const (
	OpCipherEncrypt RecordOp = iota
	OpCipherDecrypt
	OpMACCompute
	OpMACVerify
)

// String names the operation.
func (o RecordOp) String() string {
	switch o {
	case OpCipherEncrypt:
		return "cipher_encrypt"
	case OpCipherDecrypt:
		return "cipher_decrypt"
	case OpMACCompute:
		return "mac_compute"
	case OpMACVerify:
		return "mac_verify"
	}
	return fmt.Sprintf("crypto_op(%d)", int(o))
}

// StepFn maps the operation onto the Table 2 row name it is charged
// to when it happens inside a handshake step (the encrypted finished
// messages): cipher work is the pri_encryption/pri_decryption row,
// MAC work the mac row.
func (o RecordOp) StepFn() string {
	switch o {
	case OpCipherDecrypt:
		return FnPriDecryption
	case OpCipherEncrypt:
		return FnPriEncryption
	default:
		return FnMac
	}
}

// Kind discriminates probe events.
type Kind uint8

// Event kinds.
const (
	// KindStepEnter marks a handshake step opening. At is the step's
	// start time; Dur is zero.
	KindStepEnter Kind = iota + 1
	// KindStepExit closes the current step; Dur is the in-step time.
	KindStepExit
	// KindCrypto is one attributed crypto call inside a step: Fn names
	// it, Step is the enclosing step, At/Dur time it.
	KindCrypto
	// KindRecordCrypto is one record-layer cipher or MAC pass: Op
	// identifies it, Prim names the primitive doing the work ("RC4",
	// "AES", "MD5", …), Bytes is the payload size, Step is the
	// enclosing handshake step or StepNone during bulk transfer.
	KindRecordCrypto
	// KindRecordIO is one framed record written (Written=true, per
	// fragment) or successfully opened, with its plaintext size in
	// Bytes and Alert set for alert records.
	KindRecordIO

	// The connection lifecycle. Every connection's stream is one
	// KindConnOpen, at most one KindHandshakeStart and one of
	// KindHandshakeDone/KindHandshakeFail, and one KindConnClose, in
	// that order, with the step, crypto and record kinds between.

	// KindConnOpen opens the stream: Conn is the ID the spine just
	// assigned (every later event of the connection carries it), Fn
	// the role ("client" or "server"), Detail the peer address when
	// the transport has one.
	KindConnOpen
	// KindHandshakeStart marks the first handshake call; Fn is the
	// role again.
	KindHandshakeStart
	// KindHandshakeSuspend and KindHandshakeResume bracket the time a
	// handshake waits for its peer inside a step, parked on
	// ErrWouldBlock (sans-IO or blocking alike).
	KindHandshakeSuspend
	KindHandshakeResume
	// KindHandshakeDone is a completed handshake: Fn names the suite,
	// Version and Resumed say what was negotiated, Dur is the wall
	// time since KindHandshakeStart.
	KindHandshakeDone
	// KindHandshakeFail is a terminal handshake error: Class and Fn
	// carry the canonical failure class and tag, Detail the error
	// text, Dur the wall time since KindHandshakeStart.
	KindHandshakeFail
	// KindAppIO is one application-data read (a record opened) or
	// write (Written) of Bytes plaintext bytes, timed by At/Dur.
	KindAppIO
	// KindConnClose ends the stream.
	KindConnClose
)

// An Event is one occurrence on the spine. It is passed by value —
// emitting an event performs no allocation.
type Event struct {
	Kind    Kind
	Step    Step      // enclosing step (step/crypto/record kinds)
	Class   FailClass // KindHandshakeFail
	Resumed bool      // KindHandshakeDone
	Written bool
	Alert   bool
	Version uint16 // KindHandshakeDone
	Conn    uint64 // the connection's ID
	Fn      string
	Detail  string // peer address (KindConnOpen) or error text (KindHandshakeFail)
	Op      RecordOp
	Prim    string // crypto primitive (KindRecordCrypto), e.g. "RC4"
	Bytes   int
	At      time.Time
	Dur     time.Duration
}
