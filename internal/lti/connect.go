package lti

import (
	"fmt"

	"yukta/internal/mat"
)

// Parallel returns g1 + g2 (shared input, summed outputs).
func Parallel(g1, g2 *StateSpace) (*StateSpace, error) {
	if g1.Inputs() != g2.Inputs() || g1.Outputs() != g2.Outputs() {
		return nil, fmt.Errorf("%w: parallel shape mismatch", ErrDimension)
	}
	if g1.Ts != g2.Ts {
		return nil, fmt.Errorf("lti: parallel sampling mismatch %v vs %v", g1.Ts, g2.Ts)
	}
	n1, n2 := g1.Order(), g2.Order()
	a := mat.Zeros(n1+n2, n1+n2)
	a.SetSlice(0, 0, g1.A)
	a.SetSlice(n1, n1, g2.A)
	b := g1.B.VStack(g2.B)
	c := g1.C.HStack(g2.C)
	d := g1.D.Add(g2.D)
	return NewStateSpace(a, b, c, d, g1.Ts)
}

// Append stacks two systems block-diagonally: inputs and outputs are
// concatenated and the systems do not interact.
func Append(g1, g2 *StateSpace) (*StateSpace, error) {
	if g1.Ts != g2.Ts {
		return nil, fmt.Errorf("lti: append sampling mismatch %v vs %v", g1.Ts, g2.Ts)
	}
	a := mat.BlockDiag(g1.A, g2.A)
	b := mat.BlockDiag(g1.B, g2.B)
	c := mat.BlockDiag(g1.C, g2.C)
	d := mat.BlockDiag(g1.D, g2.D)
	return NewStateSpace(a, b, c, d, g1.Ts)
}

// Feedback returns the closed loop of plant g with feedback h:
//
//	y = g(u + sign*h(y))
//
// with sign = -1 for negative feedback (the default convention). It returns
// an error if the algebraic loop I - sign*Dg*Dh is singular.
func Feedback(g, h *StateSpace, sign float64) (*StateSpace, error) {
	if g.Outputs() != h.Inputs() || h.Outputs() != g.Inputs() {
		return nil, fmt.Errorf("%w: feedback shapes %dx%d and %dx%d", ErrDimension,
			g.Outputs(), g.Inputs(), h.Outputs(), h.Inputs())
	}
	if g.Ts != h.Ts {
		return nil, fmt.Errorf("lti: feedback sampling mismatch %v vs %v", g.Ts, h.Ts)
	}
	ng, nh := g.Order(), h.Order()
	// Resolve the algebraic loop: y = Cg xg + Dg(u + s*yh), yh = Ch xh + Dh y.
	// => (I - s*Dg*Dh) y = Cg xg + s*Dg*Ch xh + Dg u
	eye := mat.Identity(g.Outputs())
	m := eye.Sub(g.D.Mul(h.D).Scale(sign))
	mInv, err := mat.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("lti: algebraic loop is singular: %w", err)
	}
	// y = mInv (Cg xg + s Dg Ch xh + Dg u)
	cy := mat.Zeros(g.Outputs(), ng+nh)
	cy.SetSlice(0, 0, mInv.Mul(g.C))
	cy.SetSlice(0, ng, mInv.Mul(g.D.Mul(h.C)).Scale(sign))
	dy := mInv.Mul(g.D)

	// xg+ = Ag xg + Bg(u + s(Ch xh + Dh y))
	// xh+ = Ah xh + Bh y
	a := mat.Zeros(ng+nh, ng+nh)
	a.SetSlice(0, 0, g.A.Add(g.B.Mul(h.D).Mul(cy.Slice(0, g.Outputs(), 0, ng)).Scale(sign)))
	topRight := g.B.Mul(h.C).Scale(sign).Add(g.B.Mul(h.D).Mul(cy.Slice(0, g.Outputs(), ng, ng+nh)).Scale(sign))
	a.SetSlice(0, ng, topRight)
	a.SetSlice(ng, 0, h.B.Mul(cy.Slice(0, g.Outputs(), 0, ng))) // xh+ rows, xg cols
	a.SetSlice(ng, ng, h.A.Add(h.B.Mul(cy.Slice(0, g.Outputs(), ng, ng+nh))))

	b := mat.Zeros(ng+nh, g.Inputs())
	b.SetSlice(0, 0, g.B.Add(g.B.Mul(h.D).Mul(dy).Scale(sign)))
	b.SetSlice(ng, 0, h.B.Mul(dy))

	return NewStateSpace(a, b, cy, dy, g.Ts)
}

// LFTLower forms the lower linear fractional transformation F_l(P, K): the
// plant P is partitioned with nw exogenous inputs and nz exogenous outputs,
//
//	[z]   [P11 P12] [w]
//	[y] = [P21 P22] [u],   u = K y
//
// and the result maps w -> z with K closed around the lower loop. The
// controller K must have P's measurement count as inputs and P's control
// count as outputs. Returns an error if the algebraic loop is singular.
func LFTLower(p *StateSpace, nz, nw int, k *StateSpace) (*StateSpace, error) {
	ny := p.Outputs() - nz // measurements
	nu := p.Inputs() - nw  // controls
	if ny < 0 || nu < 0 {
		return nil, fmt.Errorf("%w: partition nz=%d nw=%d exceeds plant %dx%d", ErrDimension, nz, nw, p.Outputs(), p.Inputs())
	}
	if k.Inputs() != ny || k.Outputs() != nu {
		return nil, fmt.Errorf("%w: controller is %dx%d, want %dx%d", ErrDimension, k.Outputs(), k.Inputs(), nu, ny)
	}
	if p.Ts != k.Ts {
		return nil, fmt.Errorf("lti: LFT sampling mismatch %v vs %v", p.Ts, k.Ts)
	}
	np, nk := p.Order(), k.Order()

	b1 := p.B.Slice(0, np, 0, nw)
	b2 := p.B.Slice(0, np, nw, nw+nu)
	c1 := p.C.Slice(0, nz, 0, np)
	c2 := p.C.Slice(nz, nz+ny, 0, np)
	d11 := p.D.Slice(0, nz, 0, nw)
	d12 := p.D.Slice(0, nz, nw, nw+nu)
	d21 := p.D.Slice(nz, nz+ny, 0, nw)
	d22 := p.D.Slice(nz, nz+ny, nw, nw+nu)

	// Algebraic loop: u = Ck xk + Dk y, y = C2 xp + D21 w + D22 u.
	// (I - Dk D22) y' ... resolve via u = (I - Dk D22)^-1-free approach:
	// Let M = I - Dk*D22 (ny×ny on y side) — standard: solve for y first.
	eye := mat.Identity(ny)
	m := eye.Sub(d22.Mul(k.D)) // careful: y = C2 x + D21 w + D22 (Ck xk + Dk y)
	mInv, err := mat.Inverse(m)
	if err != nil {
		return nil, fmt.Errorf("lti: LFT algebraic loop is singular: %w", err)
	}
	// y = mInv (C2 xp + D21 w + D22 Ck xk)
	yC := mat.Zeros(ny, np+nk)
	yC.SetSlice(0, 0, mInv.Mul(c2))
	yC.SetSlice(0, np, mInv.Mul(d22).Mul(k.C))
	yD := mInv.Mul(d21)
	// u = Ck xk + Dk y
	uC := mat.Zeros(nu, np+nk)
	uC.SetSlice(0, np, k.C)
	uC = uC.Add(k.D.Mul(yC))
	uD := k.D.Mul(yD)

	// xp+ = A xp + B1 w + B2 u ; xk+ = Ak xk + Bk y
	a := mat.Zeros(np+nk, np+nk)
	ap := mat.Zeros(np, np+nk)
	ap.SetSlice(0, 0, p.A)
	ap = ap.Add(b2.Mul(uC))
	a.SetSlice(0, 0, ap)
	ak := mat.Zeros(nk, np+nk)
	ak.SetSlice(0, np, k.A)
	ak = ak.Add(k.B.Mul(yC))
	a.SetSlice(np, 0, ak)

	b := mat.Zeros(np+nk, nw)
	b.SetSlice(0, 0, b1.Add(b2.Mul(uD)))
	b.SetSlice(np, 0, k.B.Mul(yD))

	// z = C1 xp + D11 w + D12 u
	c := mat.Zeros(nz, np+nk)
	c.SetSlice(0, 0, c1)
	c = c.Add(d12.Mul(uC))
	d := d11.Add(d12.Mul(uD))

	return NewStateSpace(a, b, c, d, p.Ts)
}
