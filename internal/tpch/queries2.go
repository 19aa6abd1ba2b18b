package tpch

import (
	"repro/internal/core"
	"repro/internal/dd"
)

// Q12: shipping modes and order priority.
func Q12(c *Collections) dd.Collection[uint64, Vals] {
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return (l.ShipMode == q12ModeA || l.ShipMode == q12ModeB) &&
				l.ReceiptDate >= q12Lo && l.ReceiptDate < q12Hi &&
				l.CommitDate < l.ReceiptDate && l.ShipDate < l.CommitDate
		}),
		func(ok uint64, l LineItem) (uint64, int64) { return ok, l.ShipMode })
	orders := dd.Map(c.Orders, func(k uint64, o Order) (uint64, int64) { return k, o.Priority })
	j := dd.Join(li, fnI64(), orders, fnI64(), "q12-join",
		func(_ uint64, mode, pri int64) (uint64, [2]int64) {
			if pri < 2 {
				return uint64(mode), [2]int64{1, 0}
			}
			return uint64(mode), [2]int64{0, 1}
		})
	return sumBy(j, func(mode uint64, v [2]int64) (uint64, Vals) {
		return mode, Vals{v[0], v[1], 0, 0, 0, 0}
	})
}

// Q13: customer distribution by order count (including zero-order
// customers via anti-join). The orders are arranged once: their count reads
// that arrangement, and so does the distinct key set the anti-join
// subtracts.
func Q13(c *Collections) dd.Collection[uint64, Vals] {
	orders := dd.Arrange(dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool { return !o.SpecialRequest }),
		func(_ uint64, o Order) (uint64, core.Unit) { return o.CustKey, core.Unit{} }), fnUnit(), "q13-orders")
	perCust := dd.CountCore(orders) // (custkey, count)
	allCust := dd.Map(c.Customer, func(k uint64, _ Customer) (uint64, core.Unit) { return k, core.Unit{} })
	// AntiJoin's body, with the orders' distinct keys taken from their
	// arrangement instead of arranging them again.
	ordering := dd.JoinCore(dd.Arrange(allCust, fnUnit(), "q13-customers"), dd.DistinctCore(orders), "q13-ordering",
		func(k uint64, _, _ core.Unit) (uint64, core.Unit) { return k, core.Unit{} })
	zeros := dd.Map(dd.Concat(allCust, dd.Negate(ordering)),
		func(k uint64, _ core.Unit) (uint64, int64) { return k, 0 })
	counts := dd.Concat(perCust, zeros)
	return sumBy(counts, func(_ uint64, n int64) (uint64, Vals) {
		return uint64(n), Vals{1, 0, 0, 0, 0, 0}
	})
}

// Q14: promotion effect: promo revenue numerator and total denominator.
func Q14(c *Collections) dd.Collection[uint64, Vals] {
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return l.ShipDate >= q14Lo && l.ShipDate < q14Hi
		}),
		func(_ uint64, l LineItem) (uint64, int64) { return l.PartKey, discPrice(l) })
	part := dd.Map(c.Part, func(k uint64, p Part) (uint64, int64) { return k, p.TypeCode })
	j := dd.Join(li, fnI64(), part, fnI64(), "q14-join",
		func(_ uint64, rev, tc int64) (uint64, [2]int64) {
			if tc/25 == TypePromoA {
				return 0, [2]int64{rev, rev}
			}
			return 0, [2]int64{0, rev}
		})
	return sumBy(j, func(_ uint64, v [2]int64) (uint64, Vals) {
		return 0, Vals{v[0], v[1], 0, 0, 0, 0}
	})
}

// suppRevenue computes per-supplier revenue over the Q15 window, one int64
// per supplier.
func suppRevenue(c *Collections) dd.Collection[uint64, int64] {
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return l.ShipDate >= q15Lo && l.ShipDate < q15Hi
		}),
		func(_ uint64, l LineItem) (uint64, int64) { return l.SuppKey, discPrice(l) })
	return dd.Sum(li, fnI64(), fnI64(), "q15-revenue",
		func(acc *int64, rev int64, d core.Diff) { *acc += rev * d })
}

// q15Groups is the fan-in of Q15's first level: suppliers are grouped by
// suppkey modulo q15Groups.
const q15Groups = 64

// argmax keeps the greatest (revenue, −suppkey) of a group: the top revenue,
// a tie going to the least supplier key.
func argmax(_ uint64, in []dd.ValDiff[[2]int64], out *[]dd.ValDiff[[2]int64]) {
	best := in[0].Val
	for _, e := range in {
		if lessT2(best, e.Val) {
			best = e.Val
		}
	}
	*out = append(*out, dd.ValDiff[[2]int64]{Val: best, Diff: 1})
}

// Q15: top supplier (the revenue argmax), as the paper's hierarchical
// aggregation (§6.1): a first reduction within q15Groups groups of
// suppliers, then a top reduction over the group winners. An epoch re-reads
// the groups whose suppliers changed and, when a winner moved, the winners,
// not every supplier.
func Q15(c *Collections) dd.Collection[uint64, Vals] { return q15(c, argmax) }

// q15 is Q15 with the reducer both levels apply; tests pass one that counts
// what it reads.
func q15(c *Collections, reducer dd.Reducer[uint64, [2]int64, [2]int64]) dd.Collection[uint64, Vals] {
	grouped := dd.Map(suppRevenue(c), func(sk uint64, rev int64) (uint64, [2]int64) {
		return sk % q15Groups, [2]int64{rev, -int64(sk)}
	})
	winners := dd.Reduce(grouped, fnT2(), fnT2(), "q15-group", reducer)
	all := dd.Map(winners, func(_ uint64, v [2]int64) (uint64, [2]int64) { return 0, v })
	top := dd.Reduce(all, fnT2(), fnT2(), "q15-top", reducer)
	return dd.Map(top, func(_ uint64, v [2]int64) (uint64, Vals) {
		return uint64(-v[1]), Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// packBTS packs (brand, type, size) into one group key.
func packBTS(b, t, s int64) uint64 { return uint64(((b*200)+t)*64 + s) }

// Q16: parts/supplier relationship: distinct non-complaint suppliers per
// (brand, type, size).
func Q16(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(
		dd.Filter(c.Part, func(_ uint64, p Part) bool {
			return p.Brand != q16Brand && p.TypeCode/25 != q16TypeA && q16Sizes[p.Size]
		}),
		func(k uint64, p Part) (uint64, [3]int64) { return k, [3]int64{p.Brand, p.TypeCode, p.Size} })
	ps := dd.Map(c.PartSupp, func(_ uint64, p PartSupp) (uint64, int64) {
		return p.PartKey, int64(p.SuppKey)
	})
	j := dd.Join(ps, fnI64(), parts, fnT3(), "q16-join",
		func(_ uint64, sk int64, bts [3]int64) (uint64, int64) {
			return packBTS(bts[0], bts[1], bts[2]), sk
		})
	complainers := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool { return s.Complaint }),
		func(k uint64, _ Supplier) (uint64, core.Unit) { return k, core.Unit{} })
	bySupp := dd.Map(j, func(bts uint64, sk int64) (uint64, int64) {
		return uint64(sk), int64(bts)
	})
	clean := dd.AntiJoin(bySupp, fnI64(), complainers, fnUnit())
	pairs := dd.Distinct(
		dd.Map(clean, func(sk uint64, bts int64) (uint64, int64) { return uint64(bts), int64(sk) }),
		fnI64())
	return sumBy(pairs, func(bts uint64, _ int64) (uint64, Vals) {
		return bts, Vals{1, 0, 0, 0, 0, 0}
	})
}

// Q17: small-quantity-order revenue: lineitems under a fifth of their
// part's average quantity.
func Q17(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(
		dd.Filter(c.Part, func(_ uint64, p Part) bool {
			return p.Brand == q17Brand && p.Container == q17Contain
		}),
		func(k uint64, _ Part) (uint64, core.Unit) { return k, core.Unit{} })
	li := dd.Map(c.Items, func(_ uint64, l LineItem) (uint64, [2]int64) {
		return l.PartKey, [2]int64{l.Quantity, l.ExtendedPrice}
	})
	liP := dd.SemiJoin(li, fnT2(), parts, fnUnit())
	stats := sumBy(liP, func(pk uint64, v [2]int64) (uint64, Vals) {
		return pk, Vals{v[0], 1, 0, 0, 0, 0} // sum qty, count
	})
	j := dd.Join(liP, fnT2(), stats, FnOut(), "q17-join",
		func(_ uint64, lv [2]int64, st Vals) (uint64, [2]int64) {
			if 5*lv[0]*st[1] < st[0] {
				return 0, [2]int64{lv[1], 0}
			}
			return ^uint64(0), [2]int64{}
		})
	kept := dd.Filter(j, func(k uint64, _ [2]int64) bool { return k != ^uint64(0) })
	return sumBy(kept, func(_ uint64, v [2]int64) (uint64, Vals) {
		return 0, Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// Q18: large-volume customers (orders above the quantity threshold).
func Q18(c *Collections) dd.Collection[uint64, Vals] {
	qty := dd.Map(c.Items, func(ok uint64, l LineItem) (uint64, int64) { return ok, l.Quantity })
	perOrder := sumBy(qty, func(ok uint64, q int64) (uint64, Vals) {
		return ok, Vals{q, 0, 0, 0, 0, 0}
	})
	big := dd.Filter(perOrder, func(_ uint64, v Vals) bool { return v[0] > q18Qty })
	orders := dd.Map(c.Orders, func(k uint64, o Order) (uint64, [3]int64) {
		return k, [3]int64{int64(o.CustKey), o.OrderDate, o.TotalPrice}
	})
	return dd.Join(big, FnOut(), orders, fnT3(), "q18-join",
		func(ok uint64, v Vals, ov [3]int64) (uint64, Vals) {
			return ok, Vals{ov[0], ov[1], ov[2], v[0], 0, 0}
		})
}

// Q19: discounted revenue over three brand/container/quantity branches.
func Q19(c *Collections) dd.Collection[uint64, Vals] {
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return l.ShipInstruct == 0 && (l.ShipMode == 2 || l.ShipMode == 5)
		}),
		func(_ uint64, l LineItem) (uint64, [2]int64) {
			return l.PartKey, [2]int64{l.Quantity, discPrice(l)}
		})
	parts := dd.Map(c.Part, func(k uint64, p Part) (uint64, [3]int64) {
		return k, [3]int64{p.Brand, p.Container, p.Size}
	})
	j := dd.Join(li, fnT2(), parts, fnT3(), "q19-join",
		func(_ uint64, lv [2]int64, pv [3]int64) (uint64, [2]int64) {
			qty, rev := lv[0], lv[1]
			b, cont, size := pv[0], pv[1], pv[2]
			ok := (b == q19Brand1 && cont < 10 && qty >= 1 && qty <= 11 && size >= 1 && size <= 5) ||
				(b == q19Brand2 && cont >= 10 && cont < 20 && qty >= 10 && qty <= 20 && size >= 1 && size <= 10) ||
				(b == q19Brand3 && cont >= 20 && cont < 30 && qty >= 20 && qty <= 30 && size >= 1 && size <= 15)
			if ok {
				return 0, [2]int64{rev, 0}
			}
			return ^uint64(0), [2]int64{}
		})
	kept := dd.Filter(j, func(k uint64, _ [2]int64) bool { return k != ^uint64(0) })
	return sumBy(kept, func(_ uint64, v [2]int64) (uint64, Vals) {
		return 0, Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// Q20: potential part promotion: suppliers in the target nation with excess
// stock of colour-matched parts relative to a year's shipments.
func Q20(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(
		dd.Filter(c.Part, func(_ uint64, p Part) bool { return p.Color == q20Color }),
		func(k uint64, _ Part) (uint64, core.Unit) { return k, core.Unit{} })
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return l.ShipDate >= q20Lo && l.ShipDate < q20Hi
		}),
		func(_ uint64, l LineItem) (uint64, [2]int64) {
			return l.PartKey, [2]int64{int64(l.SuppKey), l.Quantity}
		})
	liP := dd.SemiJoin(li, fnT2(), parts, fnUnit())
	shipped := sumBy(liP, func(pk uint64, v [2]int64) (uint64, Vals) {
		return packPartSupp(pk, uint64(v[0])), Vals{v[1], 0, 0, 0, 0, 0}
	})
	ps := dd.Map(c.PartSupp, func(_ uint64, p PartSupp) (uint64, [2]int64) {
		return packPartSupp(p.PartKey, p.SuppKey), [2]int64{int64(p.SuppKey), p.AvailQty}
	})
	j := dd.Join(ps, fnT2(), shipped, FnOut(), "q20-join",
		func(_ uint64, pv [2]int64, sh Vals) (uint64, core.Unit) {
			if 2*pv[1] > sh[0] {
				return uint64(pv[0]), core.Unit{}
			}
			return ^uint64(0), core.Unit{}
		})
	kept := dd.DistinctCore(dd.Arrange(
		dd.Filter(j, func(k uint64, _ core.Unit) bool { return k != ^uint64(0) }), fnUnit(), "q20-kept"))
	supp := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool { return s.NationKey == q20Nation }),
		func(k uint64, _ Supplier) (uint64, core.Unit) { return k, core.Unit{} })
	// A semi-join of kept's own distinct arrangement: SemiJoin would arrange
	// the flattened output again.
	final := dd.JoinCore(kept, distinctKeys(supp, "q20-supp"), "q20-final",
		func(sk uint64, _, _ core.Unit) (uint64, core.Unit) { return sk, core.Unit{} })
	return dd.Map(final, func(sk uint64, _ core.Unit) (uint64, Vals) {
		return sk, Vals{1, 0, 0, 0, 0, 0}
	})
}

// Q21: suppliers who kept orders waiting: the sole late supplier of a
// multi-supplier order.
func Q21(c *Collections) dd.Collection[uint64, Vals] {
	// all and late are read through the arrangements their reduces
	// maintain: counting or semi-joining a flattened copy would arrange it
	// again.
	all := dd.DistinctCore(dd.Arrange(dd.Map(c.Items, func(ok uint64, l LineItem) (uint64, int64) {
		return ok, int64(l.SuppKey)
	}), fnI64(), "q21-all"))
	late := dd.DistinctCore(dd.Arrange(dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool { return l.ReceiptDate > l.CommitDate }),
		func(ok uint64, l LineItem) (uint64, int64) { return ok, int64(l.SuppKey) }), fnI64(), "q21-late"))
	nAll := dd.CountCore(all)
	nLate := dd.CountCore(late)
	ordersF := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool { return o.Status == 0 }),
		func(k uint64, _ Order) (uint64, core.Unit) { return k, core.Unit{} })
	cand := dd.JoinCore(late, distinctKeys(ordersF, "q21-orders"), "q21-cand",
		func(ok uint64, sk int64, _ core.Unit) (uint64, int64) { return ok, sk })
	j1 := dd.Join(cand, fnI64(), nAll, fnI64(), "q21-all",
		func(ok uint64, sk, n int64) (uint64, [2]int64) { return ok, [2]int64{sk, n} })
	j2 := dd.Join(j1, fnT2(), nLate, fnI64(), "q21-late",
		func(_ uint64, v [2]int64, nl int64) (uint64, core.Unit) {
			if v[1] >= 2 && nl == 1 {
				return uint64(v[0]), core.Unit{}
			}
			return ^uint64(0), core.Unit{}
		})
	kept := dd.Filter(j2, func(k uint64, _ core.Unit) bool { return k != ^uint64(0) })
	supp := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool { return s.NationKey == q21Nation }),
		func(k uint64, _ Supplier) (uint64, core.Unit) { return k, core.Unit{} })
	final := dd.SemiJoin(kept, fnUnit(), supp, fnUnit())
	return sumBy(final, func(sk uint64, _ core.Unit) (uint64, Vals) {
		return sk, Vals{1, 0, 0, 0, 0, 0}
	})
}

// distinctKeys is the key side of dd.SemiJoin: keys, arranged and made
// distinct, for a JoinCore against an arrangement already at hand.
func distinctKeys(keys dd.Collection[uint64, core.Unit], name string) *core.Arranged[uint64, core.Unit] {
	return dd.DistinctCore(dd.Arrange(keys, fnUnit(), name))
}

// Q22: global sales opportunity: well-funded customers in target country
// codes with no orders.
func Q22(c *Collections) dd.Collection[uint64, Vals] {
	coded := dd.Filter(c.Customer, func(_ uint64, cu Customer) bool { return q22Codes[cu.Phone] })
	positive := dd.Filter(coded, func(_ uint64, cu Customer) bool { return cu.AcctBal > q22BalMin })
	avg := sumBy(positive, func(_ uint64, cu Customer) (uint64, Vals) {
		return 0, Vals{cu.AcctBal, 1, 0, 0, 0, 0}
	})
	withOrders := dd.Map(c.Orders, func(_ uint64, o Order) (uint64, core.Unit) {
		return o.CustKey, core.Unit{}
	})
	candidates := dd.AntiJoin(coded, fnCustomer(), withOrders, fnUnit())
	rekeyed := dd.Map(candidates, func(_ uint64, cu Customer) (uint64, [2]int64) {
		return 0, [2]int64{cu.Phone, cu.AcctBal}
	})
	j := dd.Join(rekeyed, fnT2(), avg, FnOut(), "q22-avg",
		func(_ uint64, cv [2]int64, a Vals) (uint64, [2]int64) {
			if cv[1]*a[1] > a[0] { // acctbal > sum/cnt
				return uint64(cv[0]), [2]int64{cv[1], 0}
			}
			return ^uint64(0), [2]int64{}
		})
	kept := dd.Filter(j, func(k uint64, _ [2]int64) bool { return k != ^uint64(0) })
	return sumBy(kept, func(code uint64, v [2]int64) (uint64, Vals) {
		return code, Vals{1, v[0], 0, 0, 0, 0}
	})
}

// Queries is the registry of all twenty-two TPC-H queries.
var Queries = map[int]QueryFunc{
	1: Q1, 2: Q2, 3: Q3, 4: Q4, 5: Q5, 6: Q6, 7: Q7, 8: Q8, 9: Q9, 10: Q10,
	11: Q11, 12: Q12, 13: Q13, 14: Q14, 15: Q15, 16: Q16, 17: Q17, 18: Q18,
	19: Q19, 20: Q20, 21: Q21, 22: Q22,
}
