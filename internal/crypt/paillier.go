package crypt

import (
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"math/big"
)

// Paillier implements the Paillier public-key cryptosystem (probabilistic,
// additively homomorphic) from scratch on math/big. It is the paper's
// second baseline (the UTD Paillier toolbox in the original evaluation):
// probabilistic — so frequency-hiding — but destroys FDs and is orders of
// magnitude slower than the symmetric schemes, which Figure 8 demonstrates.
type Paillier struct {
	// Public key.
	N  *big.Int // n = p·q
	N2 *big.Int // n²
	G  *big.Int // generator g = n+1

	// Private key.
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^λ mod n²))⁻¹ mod n
}

// GeneratePaillier creates a key pair with |n| ≈ bits. The paper's toolbox
// defaults to 1024-bit keys; tests use smaller sizes for speed.
func GeneratePaillier(bits int) (*Paillier, error) {
	if bits < 64 {
		return nil, errors.New("crypt: paillier modulus too small")
	}
	for attempt := 0; attempt < 64; attempt++ {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("crypt: paillier keygen: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("crypt: paillier keygen: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		qm1 := new(big.Int).Sub(q, big.NewInt(1))
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)

		n2 := new(big.Int).Mul(n, n)
		g := new(big.Int).Add(n, big.NewInt(1))

		// mu = (L(g^λ mod n²))⁻¹ mod n, with L(x) = (x-1)/n.
		glambda := new(big.Int).Exp(g, lambda, n2)
		l := paillierL(glambda, n)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue // p, q unsuitable; retry
		}
		return &Paillier{N: n, N2: n2, G: g, lambda: lambda, mu: mu}, nil
	}
	return nil, errors.New("crypt: paillier keygen failed")
}

func paillierL(x, n *big.Int) *big.Int {
	return new(big.Int).Div(new(big.Int).Sub(x, big.NewInt(1)), n)
}

// EncryptInt encrypts m ∈ [0, n) as c = g^m · r^n mod n².
func (pk *Paillier) EncryptInt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, errors.New("crypt: paillier plaintext out of range")
	}
	r, err := pk.randomUnit()
	if err != nil {
		return nil, err
	}
	// g = n+1 ⇒ g^m = 1 + m·n (mod n²), a standard speedup.
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return c, nil
}

// DecryptInt recovers m = L(c^λ mod n²) · mu mod n.
func (pk *Paillier) DecryptInt(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(pk.N2) >= 0 {
		return nil, errors.New("crypt: paillier ciphertext out of range")
	}
	clambda := new(big.Int).Exp(c, pk.lambda, pk.N2)
	m := paillierL(clambda, pk.N)
	m.Mul(m, pk.mu)
	m.Mod(m, pk.N)
	return m, nil
}

func (pk *Paillier) randomUnit() (*big.Int, error) {
	for {
		r, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, fmt.Errorf("crypt: paillier randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(big.NewInt(1)) == 0 {
			return r, nil
		}
	}
}

// EncryptCell implements CellCipher over string cells: the cell's bytes are
// interpreted as a big integer (length-capped by the modulus).
func (pk *Paillier) EncryptCell(plain string) (string, error) {
	m := new(big.Int).SetBytes(append([]byte{1}, plain...)) // 1-prefix keeps leading zeros
	if m.Cmp(pk.N) >= 0 {
		return "", fmt.Errorf("crypt: cell too large for paillier modulus (%d bytes)", len(plain))
	}
	c, err := pk.EncryptInt(m)
	if err != nil {
		return "", err
	}
	return base64.RawURLEncoding.EncodeToString(c.Bytes()), nil
}

// DecryptCell inverts EncryptCell.
func (pk *Paillier) DecryptCell(ct string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(ct)
	if err != nil {
		return "", ErrCiphertext
	}
	m, err := pk.DecryptInt(new(big.Int).SetBytes(raw))
	if err != nil {
		return "", err
	}
	b := m.Bytes()
	if len(b) == 0 || b[0] != 1 {
		return "", ErrCiphertext
	}
	return string(b[1:]), nil
}
