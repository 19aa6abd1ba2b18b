package tpch

import (
	"repro/internal/core"
	"repro/internal/dd"
)

// Query parameters (integer-coded analogues of the spec's substitution
// parameters, shared by the dataflow and oracle implementations).
const (
	q1Cutoff   = DateMax - 90
	q2Size     = 15
	q2Region   = 3
	q3Segment  = 0
	q3Date     = Year1995 + 74
	q4Lo       = Year1993 + 181
	q4Hi       = q4Lo + 92
	q5Region   = 2
	q5Lo       = Year1994
	q5Hi       = Year1995
	q6Lo       = Year1994
	q6Hi       = Year1995
	q6DiscLo   = 5
	q6DiscHi   = 7
	q6Qty      = 24
	q7Nation1  = 4
	q7Nation2  = 7
	q8Region   = 1
	q8Nation   = 2
	q8Type     = 77
	q9Color    = 37
	q10Lo      = Year1993 + 273
	q10Hi      = q10Lo + 92
	q11Nation  = 7
	q11FracInv = 10000 // value > total / q11FracInv
	q12ModeA   = 0
	q12ModeB   = 1
	q12Lo      = Year1994
	q12Hi      = Year1995
	q14Lo      = Year1995 + 243
	q14Hi      = q14Lo + 30
	q15Lo      = Year1996
	q15Hi      = q15Lo + 92
	q16Brand   = 15
	q16TypeA   = 2 // excluded type prefix (code/25)
	q17Brand   = 23
	q17Contain = 13
	q18Qty     = 240
	q19Brand1  = 12
	q19Brand2  = 14
	q19Brand3  = 21
	q20Color   = 5
	q20Nation  = 3
	q20Lo      = Year1994
	q20Hi      = Year1995
	q21Nation  = 20
	q22BalMin  = 0
)

var q16Sizes = map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
var q22Codes = map[int64]bool{11: true, 15: true, 19: true, 23: true, 27: true, 31: true, 33: true}

// QueryFunc builds one TPC-H query over the relation collections and returns
// its maintained result (packed group key -> exact integer aggregates).
type QueryFunc func(c *Collections) dd.Collection[uint64, Vals]

// discPrice is extendedprice * (1 - discount), in cents (exact).
func discPrice(l LineItem) int64 { return l.ExtendedPrice * (100 - l.Discount) / 100 }

// Q1: pricing summary report per (returnflag, linestatus).
func Q1(c *Collections) dd.Collection[uint64, Vals] {
	f := dd.Filter(c.Items, func(_ uint64, l LineItem) bool { return l.ShipDate <= q1Cutoff })
	return sumBy(f, func(_ uint64, l LineItem) (uint64, Vals) {
		charge := l.ExtendedPrice * (100 - l.Discount) * (100 + l.Tax) / 10000
		return uint64(l.ReturnFlag*2 + l.LineStatus),
			Vals{l.Quantity, l.ExtendedPrice, discPrice(l), charge, 1, 0}
	})
}

// Q2: minimum-cost supplier per qualifying part in the target region.
func Q2(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(
		dd.Filter(c.Part, func(_ uint64, p Part) bool {
			return p.Size == q2Size && p.TypeCode%5 == TypeBrassC
		}),
		func(k uint64, p Part) (uint64, core.Unit) { return k, core.Unit{} })
	supp := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool {
			return NationRegion(s.NationKey) == q2Region
		}),
		func(k uint64, s Supplier) (uint64, [2]int64) { return k, [2]int64{s.NationKey, s.AcctBal} })
	psParts := dd.SemiJoin(c.PartSupp, fnPartSupp(), parts, fnUnit())
	bySupp := dd.Map(psParts, func(_ uint64, ps PartSupp) (uint64, [2]int64) {
		return ps.SuppKey, [2]int64{int64(ps.PartKey), ps.SupplyCost}
	})
	withSupp := dd.Join(bySupp, fnT2(), supp, fnT2(), "q2-supp",
		func(sk uint64, ps, s [2]int64) (uint64, [2]int64) {
			return uint64(ps[0]), [2]int64{ps[1], int64(sk)} // (part, [cost, supp])
		})
	return dd.Reduce(withSupp, fnT2(), FnOut(), "q2-min",
		func(part uint64, in []dd.ValDiff[[2]int64], out *[]dd.ValDiff[Vals]) {
			best := in[0].Val
			for _, e := range in {
				if lessT2(e.Val, best) {
					best = e.Val
				}
			}
			*out = append(*out, dd.ValDiff[Vals]{Val: Vals{best[0], best[1], 0, 0, 0, 0}, Diff: 1})
		})
}

// Q3: revenue of unshipped orders in the target segment, per order.
func Q3(c *Collections) dd.Collection[uint64, Vals] {
	cust := dd.Map(
		dd.Filter(c.Customer, func(_ uint64, cu Customer) bool { return cu.MktSegment == q3Segment }),
		func(k uint64, cu Customer) (uint64, core.Unit) { return k, core.Unit{} })
	orders := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool { return o.OrderDate < q3Date }),
		func(_ uint64, o Order) (uint64, [3]int64) {
			return o.CustKey, [3]int64{int64(o.OrderKey), o.OrderDate, o.ShipPriority}
		})
	oc := dd.SemiJoin(orders, fnT3(), cust, fnUnit())
	ordByKey := dd.Map(oc, func(_ uint64, o [3]int64) (uint64, [2]int64) {
		return uint64(o[0]), [2]int64{o[1], o[2]}
	})
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool { return l.ShipDate > q3Date }),
		func(ok uint64, l LineItem) (uint64, int64) { return ok, discPrice(l) })
	rev := dd.Join(li, fnI64(), ordByKey, fnT2(), "q3-join",
		func(ok uint64, r int64, od [2]int64) (uint64, [3]int64) {
			return ok, [3]int64{r, od[0], od[1]}
		})
	// The sum keeps revenue·d, orderdate·d, shippriority·d and the count d.
	// Every record of an order joined the order's one row, so its date and
	// priority sums are n times the order's, and dividing by the count n is
	// exact.
	sums := dd.Sum(rev, fnT3(), fnT4(), "q3-sum", func(acc *[4]int64, v [3]int64, d core.Diff) {
		acc[0] += v[0] * d
		acc[1] += v[1] * d
		acc[2] += v[2] * d
		acc[3] += d
	})
	return dd.Map(sums, func(ok uint64, a [4]int64) (uint64, Vals) {
		return ok, Vals{a[0], a[1] / a[3], a[2] / a[3], 0, 0, 0}
	})
}

// Q4: order-priority checking (orders in the quarter with a late lineitem).
func Q4(c *Collections) dd.Collection[uint64, Vals] {
	orders := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool {
			return o.OrderDate >= q4Lo && o.OrderDate < q4Hi
		}),
		func(k uint64, o Order) (uint64, int64) { return k, o.Priority })
	late := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool { return l.CommitDate < l.ReceiptDate }),
		func(ok uint64, l LineItem) (uint64, core.Unit) { return ok, core.Unit{} })
	qualified := dd.SemiJoin(orders, fnI64(), late, fnUnit())
	return sumBy(qualified, func(_ uint64, pri int64) (uint64, Vals) {
		return uint64(pri), Vals{1, 0, 0, 0, 0, 0}
	})
}

// Q5: local supplier volume per nation in the target region.
func Q5(c *Collections) dd.Collection[uint64, Vals] {
	cust := dd.Map(
		dd.Filter(c.Customer, func(_ uint64, cu Customer) bool {
			return NationRegion(cu.NationKey) == q5Region
		}),
		func(k uint64, cu Customer) (uint64, int64) { return k, cu.NationKey })
	orders := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool {
			return o.OrderDate >= q5Lo && o.OrderDate < q5Hi
		}),
		func(_ uint64, o Order) (uint64, int64) { return o.CustKey, int64(o.OrderKey) })
	oc := dd.Join(orders, fnI64(), cust, fnI64(), "q5-oc",
		func(ck uint64, ok, nation int64) (uint64, int64) { return uint64(ok), nation })
	li := dd.Map(c.Items, func(ok uint64, l LineItem) (uint64, [2]int64) {
		return ok, [2]int64{int64(l.SuppKey), discPrice(l)}
	})
	j := dd.Join(li, fnT2(), oc, fnI64(), "q5-li",
		func(ok uint64, lv [2]int64, cnation int64) (uint64, [2]int64) {
			return uint64(lv[0]), [2]int64{cnation, lv[1]}
		})
	supp := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool {
			return NationRegion(s.NationKey) == q5Region
		}),
		func(k uint64, s Supplier) (uint64, int64) { return k, s.NationKey })
	matched := dd.Join(j, fnT2(), supp, fnI64(), "q5-supp",
		func(sk uint64, cv [2]int64, snation int64) (uint64, [2]int64) {
			if cv[0] == snation {
				return uint64(snation), [2]int64{cv[1], 1}
			}
			return ^uint64(0), [2]int64{0, 0}
		})
	kept := dd.Filter(matched, func(k uint64, v [2]int64) bool { return k != ^uint64(0) })
	return sumBy(kept, func(n uint64, v [2]int64) (uint64, Vals) {
		return n, Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// Q6: forecasting revenue change (a single filtered sum).
func Q6(c *Collections) dd.Collection[uint64, Vals] {
	f := dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
		return l.ShipDate >= q6Lo && l.ShipDate < q6Hi &&
			l.Discount >= q6DiscLo && l.Discount <= q6DiscHi && l.Quantity < q6Qty
	})
	return sumBy(f, func(_ uint64, l LineItem) (uint64, Vals) {
		return 0, Vals{l.ExtendedPrice * l.Discount / 100, 0, 0, 0, 0, 0}
	})
}

// Q7: volume shipping between the two target nations per year.
func Q7(c *Collections) dd.Collection[uint64, Vals] {
	isTarget := func(n int64) bool { return n == q7Nation1 || n == q7Nation2 }
	li := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool {
			return l.ShipDate >= Year1995 && l.ShipDate < Year1997
		}),
		func(ok uint64, l LineItem) (uint64, [3]int64) {
			year := int64(0)
			if l.ShipDate >= Year1996 {
				year = 1
			}
			return l.SuppKey, [3]int64{int64(ok), discPrice(l), year}
		})
	supp := dd.Map(dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool { return isTarget(s.NationKey) }),
		func(k uint64, s Supplier) (uint64, int64) { return k, s.NationKey })
	j1 := dd.Join(li, fnT3(), supp, fnI64(), "q7-supp",
		func(sk uint64, lv [3]int64, sn int64) (uint64, [3]int64) {
			return uint64(lv[0]), [3]int64{sn, lv[1], lv[2]}
		})
	ordCust := dd.Map(c.Orders, func(_ uint64, o Order) (uint64, int64) {
		return o.OrderKey, int64(o.CustKey)
	})
	j2 := dd.Join(j1, fnT3(), ordCust, fnI64(), "q7-ord",
		func(ok uint64, v [3]int64, ck int64) (uint64, [3]int64) {
			return uint64(ck), v
		})
	cust := dd.Map(dd.Filter(c.Customer, func(_ uint64, cu Customer) bool { return isTarget(cu.NationKey) }),
		func(k uint64, cu Customer) (uint64, int64) { return k, cu.NationKey })
	j3 := dd.Join(j2, fnT3(), cust, fnI64(), "q7-cust",
		func(ck uint64, v [3]int64, cn int64) (uint64, [2]int64) {
			if (v[0] == q7Nation1 && cn == q7Nation2) || (v[0] == q7Nation2 && cn == q7Nation1) {
				return uint64(v[0]*1000+cn*10) + uint64(v[2]), [2]int64{v[1], 0}
			}
			return ^uint64(0), [2]int64{}
		})
	kept := dd.Filter(j3, func(k uint64, _ [2]int64) bool { return k != ^uint64(0) })
	return sumBy(kept, func(k uint64, v [2]int64) (uint64, Vals) {
		return k, Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// Q8: national market share within the target region per year.
func Q8(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(dd.Filter(c.Part, func(_ uint64, p Part) bool { return p.TypeCode == q8Type }),
		func(k uint64, p Part) (uint64, core.Unit) { return k, core.Unit{} })
	liByPart := dd.Map(c.Items, func(ok uint64, l LineItem) (uint64, [3]int64) {
		return l.PartKey, [3]int64{int64(ok), int64(l.SuppKey), discPrice(l)}
	})
	liP := dd.SemiJoin(liByPart, fnT3(), parts, fnUnit())
	byOrder := dd.Map(liP, func(_ uint64, v [3]int64) (uint64, [2]int64) {
		return uint64(v[0]), [2]int64{v[1], v[2]}
	})
	orders := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool {
			return o.OrderDate >= Year1995 && o.OrderDate < Year1997
		}),
		func(k uint64, o Order) (uint64, [2]int64) {
			year := int64(0)
			if o.OrderDate >= Year1996 {
				year = 1
			}
			return k, [2]int64{int64(o.CustKey), year}
		})
	j1 := dd.Join(byOrder, fnT2(), orders, fnT2(), "q8-ord",
		func(ok uint64, lv, ov [2]int64) (uint64, [3]int64) {
			return uint64(ov[0]), [3]int64{lv[0], lv[1], ov[1]}
		})
	cust := dd.Map(
		dd.Filter(c.Customer, func(_ uint64, cu Customer) bool {
			return NationRegion(cu.NationKey) == q8Region
		}),
		func(k uint64, cu Customer) (uint64, core.Unit) { return k, core.Unit{} })
	j2 := dd.SemiJoin(j1, fnT3(), cust, fnUnit())
	bySupp := dd.Map(j2, func(_ uint64, v [3]int64) (uint64, [2]int64) {
		return uint64(v[0]), [2]int64{v[1], v[2]}
	})
	supp := dd.Map(c.Supplier, func(k uint64, s Supplier) (uint64, int64) { return k, s.NationKey })
	j3 := dd.Join(bySupp, fnT2(), supp, fnI64(), "q8-supp",
		func(sk uint64, lv [2]int64, sn int64) (uint64, [2]int64) {
			num := int64(0)
			if sn == q8Nation {
				num = lv[0]
			}
			return uint64(lv[1]), [2]int64{num, lv[0]}
		})
	return sumBy(j3, func(year uint64, v [2]int64) (uint64, Vals) {
		return year, Vals{v[0], v[1], 0, 0, 0, 0}
	})
}

// packPartSupp packs a (part, supp) pair into one key.
func packPartSupp(part, supp uint64) uint64 { return part<<24 | supp }

// Q9: product-type profit per (nation, year) for colour-matched parts.
func Q9(c *Collections) dd.Collection[uint64, Vals] {
	parts := dd.Map(dd.Filter(c.Part, func(_ uint64, p Part) bool { return p.Color == q9Color }),
		func(k uint64, p Part) (uint64, core.Unit) { return k, core.Unit{} })
	liByPart := dd.Map(c.Items, func(ok uint64, l LineItem) (uint64, [4]int64) {
		return l.PartKey, [4]int64{int64(ok), int64(l.SuppKey), l.Quantity, discPrice(l)}
	})
	liP := dd.SemiJoin(liByPart, fnT4(), parts, fnUnit())
	byPS := dd.Map(liP, func(pk uint64, v [4]int64) (uint64, [4]int64) {
		return packPartSupp(pk, uint64(v[1])), v
	})
	ps := dd.Map(c.PartSupp, func(_ uint64, p PartSupp) (uint64, int64) {
		return packPartSupp(p.PartKey, p.SuppKey), p.SupplyCost
	})
	j1 := dd.Join(byPS, fnT4(), ps, fnI64(), "q9-ps",
		func(_ uint64, lv [4]int64, cost int64) (uint64, [2]int64) {
			amount := lv[3] - cost*lv[2]/100
			return uint64(lv[0]), [2]int64{lv[1], amount}
		})
	orders := dd.Map(c.Orders, func(k uint64, o Order) (uint64, int64) {
		return k, o.OrderDate / OneYearDays
	})
	j2 := dd.Join(j1, fnT2(), orders, fnI64(), "q9-ord",
		func(_ uint64, lv [2]int64, year int64) (uint64, [2]int64) {
			return uint64(lv[0]), [2]int64{lv[1], year}
		})
	supp := dd.Map(c.Supplier, func(k uint64, s Supplier) (uint64, int64) { return k, s.NationKey })
	j3 := dd.Join(j2, fnT2(), supp, fnI64(), "q9-supp",
		func(_ uint64, lv [2]int64, sn int64) (uint64, [2]int64) {
			return uint64(sn*10000 + lv[1]), [2]int64{lv[0], 0}
		})
	return sumBy(j3, func(k uint64, v [2]int64) (uint64, Vals) {
		return k, Vals{v[0], 0, 0, 0, 0, 0}
	})
}

// Q10: returned-item reporting per customer.
func Q10(c *Collections) dd.Collection[uint64, Vals] {
	orders := dd.Map(
		dd.Filter(c.Orders, func(_ uint64, o Order) bool {
			return o.OrderDate >= q10Lo && o.OrderDate < q10Hi
		}),
		func(k uint64, o Order) (uint64, int64) { return k, int64(o.CustKey) })
	liR := dd.Map(
		dd.Filter(c.Items, func(_ uint64, l LineItem) bool { return l.ReturnFlag == 2 }),
		func(ok uint64, l LineItem) (uint64, int64) { return ok, discPrice(l) })
	j := dd.Join(liR, fnI64(), orders, fnI64(), "q10-join",
		func(_ uint64, rev, ck int64) (uint64, int64) { return uint64(ck), rev })
	sums := sumBy(j, func(ck uint64, rev int64) (uint64, Vals) {
		return ck, Vals{rev, 0, 0, 0, 0, 0}
	})
	cust := dd.Map(c.Customer, func(k uint64, cu Customer) (uint64, [2]int64) {
		return k, [2]int64{cu.NationKey, cu.AcctBal}
	})
	return dd.Join(sums, FnOut(), cust, fnT2(), "q10-cust",
		func(ck uint64, s Vals, cv [2]int64) (uint64, Vals) {
			return ck, Vals{s[0], cv[0], cv[1], 0, 0, 0}
		})
}

// Q11: important stock identification (per-part value above a fraction of
// the national total).
func Q11(c *Collections) dd.Collection[uint64, Vals] {
	supp := dd.Map(
		dd.Filter(c.Supplier, func(_ uint64, s Supplier) bool { return s.NationKey == q11Nation }),
		func(k uint64, s Supplier) (uint64, core.Unit) { return k, core.Unit{} })
	psBySupp := dd.Map(c.PartSupp, func(_ uint64, p PartSupp) (uint64, [2]int64) {
		return p.SuppKey, [2]int64{int64(p.PartKey), p.SupplyCost * p.AvailQty}
	})
	psF := dd.SemiJoin(psBySupp, fnT2(), supp, fnUnit())
	partVals := sumBy(psF, func(_ uint64, v [2]int64) (uint64, Vals) {
		return uint64(v[0]), Vals{v[1], 0, 0, 0, 0, 0}
	})
	total := sumBy(psF, func(_ uint64, v [2]int64) (uint64, Vals) {
		return 0, Vals{v[1], 0, 0, 0, 0, 0}
	})
	rekeyed := dd.Map(partVals, func(pk uint64, v Vals) (uint64, [2]int64) {
		return 0, [2]int64{int64(pk), v[0]}
	})
	j := dd.Join(rekeyed, fnT2(), total, FnOut(), "q11-total",
		func(_ uint64, pv [2]int64, tot Vals) (uint64, [2]int64) {
			if pv[1]*q11FracInv > tot[0] {
				return uint64(pv[0]), [2]int64{pv[1], 0}
			}
			return ^uint64(0), [2]int64{}
		})
	kept := dd.Filter(j, func(k uint64, _ [2]int64) bool { return k != ^uint64(0) })
	return dd.Map(kept, func(pk uint64, v [2]int64) (uint64, Vals) {
		return pk, Vals{v[0], 0, 0, 0, 0, 0}
	})
}
