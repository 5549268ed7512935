// Package rsa implements RSA key generation, PKCS#1 v1.5 encryption
// and signatures, CRT private-key operations and blinding, from
// scratch on the bn package — the asymmetric primitive the paper's
// handshake measurements revolve around.
//
// Decryption is factored into the six phases of the paper's Table 7
// (init, string→bignum, blinding, modular computation, bignum→string,
// block parsing) so the experiment harness can attribute time to each.
package rsa

import (
	"errors"
	"io"
	"math/bits"
	"sync"

	"sslperf/internal/bn"
	"sslperf/internal/perf"
)

// Phase names for the Table 7 breakdown.
const (
	PhaseInit         = "init"
	PhaseDataToBN     = "data_to_bn"
	PhaseBlinding     = "blinding"
	PhaseComputation  = "computation"
	PhaseBNToData     = "bn_to_data"
	PhaseBlockParsing = "block_parsing"
)

// Phases lists the decryption phases in execution order.
var Phases = []string{
	PhaseInit, PhaseDataToBN, PhaseBlinding,
	PhaseComputation, PhaseBNToData, PhaseBlockParsing,
}

// A Decrypter performs the RSA private-key operation on a PKCS#1
// v1.5 ciphertext. *PrivateKey implements it directly (CRT with
// blinding); the rsabatch package provides implementations that
// amortize the modular exponentiation across concurrent requests.
// Implementations must be safe for concurrent use.
type Decrypter interface {
	DecryptPKCS1(rnd io.Reader, ct []byte) ([]byte, error)
}

// PublicKey is an RSA public key (N, e).
type PublicKey struct {
	N *bn.Int // modulus
	E *bn.Int // public exponent
}

// Size returns the modulus size in bytes.
func (pub *PublicKey) Size() int { return (pub.N.BitLen() + 7) / 8 }

// PrivateKey is an RSA private key with CRT parameters. A literal with
// the exported fields set is ready to use; the rest is built on first
// use. A PrivateKey must not be copied after that.
type PrivateKey struct {
	PublicKey
	D    *bn.Int // private exponent
	P, Q *bn.Int // prime factors, P > Q
	Dp   *bn.Int // D mod (P-1)
	Dq   *bn.Int // D mod (Q-1)
	Qinv *bn.Int // Q^-1 mod P

	once sync.Once
	pre  precomputed

	// blind is the shared blinding pair; blindMu serializes its
	// refresh when one key serves concurrent connections (the same
	// reason OpenSSL locks its BN_BLINDING).
	blindMu sync.Mutex
	blind   *blinding
}

// precomputed is what every private operation under one key shares:
// the Montgomery contexts for P, Q and N (so no operation pays for
// R² mod N again), the two CRT constants in Montgomery form, and a
// pool of arenas.
type precomputed struct {
	p, q, n *bn.Mont
	qinvR   *bn.Int // Qinv·R mod P: MulMont(h, qinvR) = h·Qinv mod P
	qR      *bn.Int // Q·R mod N: MulMont(h, qR) = h·Q for h < P
	arenas  sync.Pool
	err     error
}

// An arena holds every intermediate of one private operation. Its
// Ints grow to the key's size on first use and are reused from then
// on, so a steady-state decryption allocates only what it returns.
// Arenas are pooled per key, never per connection.
type arena struct {
	c, m1, m2, h, m bn.Int
	a, ainv         bn.Int // this operation's copy of the blinding pair
	eb              []byte // the recovered encryption block
}

// precompute returns the key's shared state, building it on first use.
func (priv *PrivateKey) precompute() (*precomputed, error) {
	priv.once.Do(func() {
		pre := &priv.pre
		pre.arenas.New = func() any { return &arena{eb: make([]byte, priv.Size())} }
		mont := func(n *bn.Int) *bn.Mont {
			m, err := bn.NewMont(n)
			if err != nil && pre.err == nil {
				pre.err = errors.New("rsa: invalid private key: " + err.Error())
			}
			return m
		}
		if pre.p, pre.q, pre.n = mont(priv.P), mont(priv.Q), mont(priv.N); pre.err != nil {
			return
		}
		pre.qinvR = pre.p.ToMont(bn.New(), pre.p.Reduce(bn.New(), priv.Qinv))
		pre.qR = pre.n.ToMont(bn.New(), priv.Q)
	})
	return &priv.pre, priv.pre.err
}

// GenerateKey generates an RSA key with the given modulus bit size and
// public exponent 65537. The paper evaluates 512- and 1024-bit keys.
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 || bits%2 != 0 {
		return nil, errors.New("rsa: key size must be an even number of bits >= 128")
	}
	e := bn.NewInt(65537)
	one := bn.NewInt(1)
	for {
		p, err := bn.GeneratePrime(rnd, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := bn.GeneratePrime(rnd, bits/2)
		if err != nil {
			return nil, err
		}
		if p.Equal(q) {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		n := bn.New().Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := bn.New().Sub(p, one)
		qm1 := bn.New().Sub(q, one)
		phi := bn.New().Mul(pm1, qm1)
		d := bn.New().ModInverse(e, phi)
		if d == nil {
			continue // e shares a factor with phi; rare
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n, E: e},
			D:         d,
			P:         p,
			Q:         q,
			Dp:        bn.New().Mod(d, pm1),
			Dq:        bn.New().Mod(d, qm1),
			Qinv:      bn.New().ModInverse(q, p),
		}
		if key.Qinv == nil {
			continue
		}
		return key, nil
	}
}

// Validate performs basic sanity checks on the key.
func (priv *PrivateKey) Validate() error {
	n := bn.New().Mul(priv.P, priv.Q)
	if !n.Equal(priv.N) {
		return errors.New("rsa: N != P*Q")
	}
	one := bn.NewInt(1)
	pm1 := bn.New().Sub(priv.P, one)
	qm1 := bn.New().Sub(priv.Q, one)
	phi := bn.New().Mul(pm1, qm1)
	de := bn.New().Mod(bn.New().Mul(priv.D, priv.E), phi)
	if !de.IsOne() {
		return errors.New("rsa: D*E != 1 mod phi(N)")
	}
	return nil
}

// public applies the public operation m^e mod N.
func (pub *PublicKey) public(m *bn.Int) *bn.Int {
	return bn.New().ModExp(m, pub.E, pub.N)
}

// crt sets ar.m = c^d mod N for c in [0, N) using the Chinese
// Remainder Theorem, as OpenSSL does: two half-size exponentiations
// plus a recombination. Reductions and products go through the cached
// Montgomery contexts, so nothing here divides or allocates.
func (priv *PrivateKey) crt(pre *precomputed, ar *arena, c *bn.Int) *bn.Int {
	pre.p.Exp(&ar.m1, pre.p.Reduce(&ar.m1, c), priv.Dp)
	pre.q.Exp(&ar.m2, pre.q.Reduce(&ar.m2, c), priv.Dq)
	// h = Qinv * (m1 - m2) mod P
	h := ar.h.Sub(&ar.m1, &ar.m2)
	for h.Sign() < 0 {
		h.Add(h, priv.P)
	}
	pre.p.MulMont(h, h, pre.qinvR)
	// m = m2 + h*Q
	pre.n.MulMont(&ar.m, h, pre.qR)
	return ar.m.Add(&ar.m, &ar.m2)
}

// privateCRT applies the raw private operation c^d mod N (no
// blinding, no padding) to c in [0, N).
func (priv *PrivateKey) privateCRT(c *bn.Int) (*bn.Int, error) {
	pre, err := priv.precompute()
	if err != nil {
		return nil, err
	}
	ar := pre.arenas.Get().(*arena)
	m := priv.crt(pre, ar, c).Clone()
	pre.arenas.Put(ar)
	return m, nil
}

// CiphertextToInt performs the decryption front half shared with the
// batch path: the length check of the init phase and the
// octet-string→bignum conversion (Table 7 phases 1–2).
func (priv *PrivateKey) CiphertextToInt(ct []byte) (*bn.Int, error) {
	if len(ct) != priv.Size() {
		return nil, errCiphertextLength
	}
	c := bn.New().SetBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, errCiphertextRange
	}
	return c, nil
}

// FinishDecrypt performs the decryption back half shared with the
// batch path: bignum→octet-string conversion and PKCS#1 block
// parsing (Table 7 phases 5–6) on a recovered plaintext integer.
func (priv *PrivateKey) FinishDecrypt(m *bn.Int) ([]byte, error) {
	return parsePKCS1Type2(m.FillBytes(make([]byte, priv.Size())))
}

// privatePlain applies c^d mod N without CRT (for cross-checking).
func (priv *PrivateKey) privatePlain(c *bn.Int) *bn.Int {
	return bn.New().ModExp(c, priv.D, priv.N)
}

// blinding holds the multiplicative blinding pair used to defeat the
// timing attack the paper cites ([3], Brumley & Boneh): A = r^e mod N
// applied before the private op, Ainv = r^-1 mod N after. OpenSSL
// refreshes the pair by squaring, which is why the paper's Table 7
// shows blinding costing ~1% rather than a full exponentiation. Both
// are kept in Montgomery form mod N, so applying one to an ordinary
// value is a single MulMont and refreshing one a single SqrMont.
type blinding struct {
	A    *bn.Int
	Ainv *bn.Int
}

// setupBlinding initializes the blinding pair with fresh randomness.
func (priv *PrivateKey) setupBlinding(pre *precomputed, rnd io.Reader) error {
	for {
		r, err := bn.New().RandRange(rnd, priv.N)
		if err != nil {
			return err
		}
		rinv := bn.New().ModInverse(r, priv.N)
		if rinv == nil {
			continue
		}
		a := pre.n.Exp(bn.New(), r, priv.E)
		priv.blind = &blinding{A: pre.n.ToMont(a, a), Ainv: pre.n.ToMont(rinv, rinv)}
		return nil
	}
}

// updateBlinding refreshes the pair by squaring, OpenSSL-style.
func (priv *PrivateKey) updateBlinding(pre *precomputed) {
	b := priv.blind
	pre.n.SqrMont(b.A, b.A)
	pre.n.SqrMont(b.Ainv, b.Ainv)
}

// EncryptPKCS1 encrypts msg with PKCS#1 v1.5 block type 2 padding.
// msg must be at most Size()-11 bytes.
func (pub *PublicKey) EncryptPKCS1(rnd io.Reader, msg []byte) ([]byte, error) {
	k := pub.Size()
	if len(msg) > k-11 {
		return nil, errors.New("rsa: message too long for key size")
	}
	// EB = 00 || 02 || PS (non-zero random) || 00 || msg
	eb := make([]byte, k)
	eb[1] = 2
	ps := eb[2 : k-len(msg)-1]
	if err := fillNonZero(rnd, ps); err != nil {
		return nil, err
	}
	copy(eb[k-len(msg):], msg)
	m := bn.New().SetBytes(eb)
	c := pub.public(m)
	return c.FillBytes(make([]byte, k)), nil
}

func fillNonZero(rnd io.Reader, p []byte) error {
	if _, err := io.ReadFull(rnd, p); err != nil {
		return err
	}
	for i := range p {
		for p[i] == 0 {
			var b [1]byte
			if _, err := io.ReadFull(rnd, b[:]); err != nil {
				return err
			}
			p[i] = b[0]
		}
	}
	return nil
}

// DecryptPKCS1 decrypts a PKCS#1 v1.5 block type 2 ciphertext with
// blinding and CRT, without phase attribution.
func (priv *PrivateKey) DecryptPKCS1(rnd io.Reader, ct []byte) ([]byte, error) {
	return priv.decrypt(rnd, ct, nil)
}

// DecryptPKCS1Profiled is DecryptPKCS1 with per-phase time
// attribution into b, regenerating the paper's Table 7 rows.
func (priv *PrivateKey) DecryptPKCS1Profiled(rnd io.Reader, ct []byte, b *perf.Breakdown) ([]byte, error) {
	return priv.decrypt(rnd, ct, b)
}

func (priv *PrivateKey) decrypt(rnd io.Reader, ct []byte, prof *perf.Breakdown) ([]byte, error) {
	var t perf.Timer
	phase := func(name string) {
		if prof != nil {
			t.Stop()
			prof.Add(name, t.Elapsed())
			t.Reset()
			t.Start()
		}
	}
	if prof != nil {
		t.Start()
	}

	// Phase 1: init — the key's contexts and an arena to work in.
	if len(ct) != priv.Size() {
		return nil, errCiphertextLength
	}
	pre, err := priv.precompute()
	if err != nil {
		return nil, err
	}
	ar := pre.arenas.Get().(*arena)
	defer pre.arenas.Put(ar)
	phase(PhaseInit)

	// Phase 2: octet string -> multi-precision integer.
	c := ar.c.SetBytes(ct)
	if c.Cmp(priv.N) >= 0 {
		return nil, errCiphertextRange
	}
	phase(PhaseDataToBN)

	// Phase 3: blinding (setup on first use, then squaring refresh).
	// The pair is taken under the key's lock so concurrent
	// decryptions each use a consistent (A, A⁻¹).
	priv.blindMu.Lock()
	if priv.blind == nil {
		if err := priv.setupBlinding(pre, rnd); err != nil {
			priv.blindMu.Unlock()
			return nil, err
		}
	} else {
		priv.updateBlinding(pre)
	}
	ar.a.Set(priv.blind.A)
	ar.ainv.Set(priv.blind.Ainv)
	priv.blindMu.Unlock()
	pre.n.MulMont(c, c, &ar.a)
	phase(PhaseBlinding)

	// Phase 4: the RSA computation c^d mod N via CRT.
	m := priv.crt(pre, ar, c)
	// Unblind: multiply by r^-1. (Charged to computation, as OpenSSL
	// performs it inside rsa_eay_private_decrypt's compute section.)
	pre.n.MulMont(m, m, &ar.ainv)
	phase(PhaseComputation)

	// Phase 5: multi-precision integer -> octet string.
	eb := m.FillBytes(ar.eb)
	phase(PhaseBNToData)

	// Phase 6: PKCS#1 block parsing.
	msg, err := parsePKCS1Type2(eb)
	phase(PhaseBlockParsing)
	return msg, err
}

// ErrDecryption is returned when a ciphertext of the right size and
// range decrypts to something that is not a PKCS#1 type 2 block. It
// is the one error of DecryptPKCS1 that depends on the plaintext, so
// a protocol answering attacker-chosen ciphertexts must not let it be
// told apart from success (the handshake substitutes a random
// pre-master); the others depend on public data only.
var ErrDecryption = errors.New("rsa: invalid PKCS#1 type 2 padding")

var (
	errCiphertextLength = errors.New("rsa: ciphertext length does not match key size")
	errCiphertextRange  = errors.New("rsa: ciphertext out of range")
)

// parsePKCS1Type2 strips 00 || 02 || PS || 00 padding (PS at least
// eight non-zero bytes). The block is the output of a private
// operation on attacker-chosen input, so the scan has one shape
// whatever it holds: every byte is read, the separator's position is
// accumulated under masks, and the three ways of being malformed are
// folded into one bit before the only branch. What the caller can
// still see — valid or not, and the message length — is what it
// returns.
func parsePKCS1Type2(eb []byte) ([]byte, error) {
	if len(eb) < 11 {
		return nil, ErrDecryption
	}
	bad := uint(eb[0]) | uint(eb[1]^2)
	sep, found := 0, uint(0)
	for i := 2; i < len(eb); i++ {
		zero := (uint(eb[i]) - 1) >> (bits.UintSize - 1) // 1 iff eb[i] == 0
		sep |= i & -int(zero&^found)
		found |= zero
	}
	// Too few padding bytes: sep - 10 is negative.
	bad |= (found ^ 1) | uint(sep-10)>>(bits.UintSize-1)
	if bad != 0 {
		return nil, ErrDecryption
	}
	return append([]byte(nil), eb[sep+1:]...), nil
}
