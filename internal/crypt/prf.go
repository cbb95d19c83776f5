package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
	"sync"
)

// PRF identifies the pseudorandom function family backing a cipher.
type PRF int

const (
	// PRFAESCTR uses AES-256 in counter mode keyed by the cell key. This is
	// the default: hardware AES makes it the fast path.
	PRFAESCTR PRF = iota
	// PRFHMAC uses HMAC-SHA256 in counter mode. Slower; kept for the PRF
	// ablation benchmark and as a non-AES reference.
	PRFHMAC
)

func (p PRF) String() string {
	switch p {
	case PRFAESCTR:
		return "aes-ctr"
	case PRFHMAC:
		return "hmac-sha256"
	default:
		return fmt.Sprintf("prf(%d)", int(p))
	}
}

// ProbCipher is the probabilistic cell cipher of §2.3: for plaintext p it
// produces e = <r, F_k(r) ⊕ p> where r is a λ-bit random string and F a
// PRF. Encrypting the same plaintext twice yields different ciphertexts.
//
// F² additionally needs *instances*: all copies of split instance i of a
// plaintext must share one ciphertext, and distinct instances must differ
// (Requirement 2). Kernel.SealInstance derives r pseudorandomly from
// (plaintext, instance, tweak) so instance identity is reproducible from
// the key alone.
//
// Sealing and opening live in Kernel. A ProbCipher is safe for concurrent
// use: its one-shot methods borrow a kernel from an internal pool, while
// hot loops hold their own kernel from NewKernel.
type ProbCipher struct {
	key     Key
	prf     PRF
	block   cipher.Block // AES block for PRFAESCTR
	kernels sync.Pool    // *Kernel, for the one-shot methods
}

// NewProbCipher builds a probabilistic cipher over the given PRF.
func NewProbCipher(key Key, prf PRF) (*ProbCipher, error) {
	c := &ProbCipher{key: key, prf: prf}
	if prf == PRFAESCTR {
		b, err := aes.NewCipher(key[:])
		if err != nil {
			return nil, fmt.Errorf("crypt: %w", err)
		}
		c.block = b
	}
	c.kernels.New = func() any { return c.NewKernel() }
	return c, nil
}

// EncryptCell encrypts with a fresh random r.
func (c *ProbCipher) EncryptCell(plain string) (string, error) {
	var r [NonceSize]byte
	if _, err := io.ReadFull(rand.Reader, r[:]); err != nil {
		return "", fmt.Errorf("crypt: drawing nonce: %w", err)
	}
	k := c.kernels.Get().(*Kernel)
	defer c.kernels.Put(k)
	return k.seal(&r, plain), nil
}

// DecryptCell is Kernel.Open for a single cell.
func (c *ProbCipher) DecryptCell(ct string) (string, error) {
	k := c.kernels.Get().(*Kernel)
	defer c.kernels.Put(k)
	return k.Open(ct)
}

// DetCipher is the deterministic baseline: an SIV-style construction where
// the nonce is itself a PRF of the plaintext, so equal plaintexts always
// map to equal ciphertexts. This models the paper's cell-level AES
// baseline, which preserves FDs but leaks the full frequency distribution.
type DetCipher struct {
	inner *ProbCipher
}

// NewDetCipher builds a deterministic cipher.
func NewDetCipher(key Key) (*DetCipher, error) {
	inner, err := NewProbCipher(key, PRFAESCTR)
	if err != nil {
		return nil, err
	}
	return &DetCipher{inner: inner}, nil
}

// EncryptCell deterministically encrypts one cell.
func (c *DetCipher) EncryptCell(plain string) (string, error) {
	k := c.inner.kernels.Get().(*Kernel)
	defer c.inner.kernels.Put(k)
	return k.sealDet(plain), nil
}

// DecryptCell inverts EncryptCell.
func (c *DetCipher) DecryptCell(ct string) (string, error) {
	return c.inner.DecryptCell(ct)
}
