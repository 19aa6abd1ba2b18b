package tpch

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/lattice"
	"repro/internal/timely"
)

// Vals is the uniform query output payload: up to six exact integer
// aggregate columns (unused trail as zero). Together with a packed uint64
// group key this represents every query's result rows.
type Vals = [6]int64

func lessVals(a, b Vals) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// FnOut orders query outputs.
func FnOut() core.Funcs[uint64, Vals] {
	return core.Funcs[uint64, Vals]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: lessVals,
		HashK: core.Mix64,
	}
}

func fnU64T[N comparable](less func(a, b N) bool) core.Funcs[uint64, N] {
	return core.Funcs[uint64, N]{
		LessK: func(a, b uint64) bool { return a < b },
		LessV: less,
		HashK: core.Mix64,
	}
}

func lessT2(a, b [2]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func lessT3(a, b [3]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func lessT4(a, b [4]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func fnT2() core.Funcs[uint64, [2]int64] { return fnU64T(lessT2) }
func fnT3() core.Funcs[uint64, [3]int64] { return fnU64T(lessT3) }
func fnT4() core.Funcs[uint64, [4]int64] { return fnU64T(lessT4) }
func fnI64() core.Funcs[uint64, int64] {
	return fnU64T(func(a, b int64) bool { return a < b })
}
func fnUnit() core.Funcs[uint64, core.Unit] { return core.U64Key() }

// Row orderings (total, lexicographic over all fields) so relations can be
// arranged directly.

func lessCustomer(a, b Customer) bool {
	if a.CustKey != b.CustKey {
		return a.CustKey < b.CustKey
	}
	if a.NationKey != b.NationKey {
		return a.NationKey < b.NationKey
	}
	if a.AcctBal != b.AcctBal {
		return a.AcctBal < b.AcctBal
	}
	if a.MktSegment != b.MktSegment {
		return a.MktSegment < b.MktSegment
	}
	return a.Phone < b.Phone
}

func lessPartSupp(a, b PartSupp) bool {
	if a.PartKey != b.PartKey {
		return a.PartKey < b.PartKey
	}
	if a.SuppKey != b.SuppKey {
		return a.SuppKey < b.SuppKey
	}
	if a.AvailQty != b.AvailQty {
		return a.AvailQty < b.AvailQty
	}
	return a.SupplyCost < b.SupplyCost
}

func lessLineItem(a, b LineItem) bool {
	if a.OrderKey != b.OrderKey {
		return a.OrderKey < b.OrderKey
	}
	if a.LineNumber != b.LineNumber {
		return a.LineNumber < b.LineNumber
	}
	if a.PartKey != b.PartKey {
		return a.PartKey < b.PartKey
	}
	if a.SuppKey != b.SuppKey {
		return a.SuppKey < b.SuppKey
	}
	if a.Quantity != b.Quantity {
		return a.Quantity < b.Quantity
	}
	if a.ExtendedPrice != b.ExtendedPrice {
		return a.ExtendedPrice < b.ExtendedPrice
	}
	if a.Discount != b.Discount {
		return a.Discount < b.Discount
	}
	if a.Tax != b.Tax {
		return a.Tax < b.Tax
	}
	if a.ReturnFlag != b.ReturnFlag {
		return a.ReturnFlag < b.ReturnFlag
	}
	if a.LineStatus != b.LineStatus {
		return a.LineStatus < b.LineStatus
	}
	if a.ShipDate != b.ShipDate {
		return a.ShipDate < b.ShipDate
	}
	if a.CommitDate != b.CommitDate {
		return a.CommitDate < b.CommitDate
	}
	if a.ReceiptDate != b.ReceiptDate {
		return a.ReceiptDate < b.ReceiptDate
	}
	if a.ShipInstruct != b.ShipInstruct {
		return a.ShipInstruct < b.ShipInstruct
	}
	return a.ShipMode < b.ShipMode
}

// The customer and partsupp Funcs carry columnar store factories
// (columnar.go): Q22's and Q2's arrangements of them store their tuples
// column-major.

func fnCustomer() core.Funcs[uint64, Customer] {
	f := fnU64T(lessCustomer)
	f.NewStore = customerStore
	return f
}

func fnPartSupp() core.Funcs[uint64, PartSupp] {
	f := fnU64T(lessPartSupp)
	f.NewStore = partSuppStore
	return f
}

// Inputs is one worker's update handles for the six mutable relations
// (region and nation are derivable from the integer codes).
type Inputs struct {
	Supplier *dd.InputCollection[uint64, Supplier]
	Customer *dd.InputCollection[uint64, Customer]
	Part     *dd.InputCollection[uint64, Part]
	PartSupp *dd.InputCollection[uint64, PartSupp]
	Orders   *dd.InputCollection[uint64, Order]
	Items    *dd.InputCollection[uint64, LineItem]
}

// Collections is the dataflow-side view of the relations: each keyed by its
// primary (or foreign, for lineitem: order) key.
type Collections struct {
	Supplier dd.Collection[uint64, Supplier]
	Customer dd.Collection[uint64, Customer]
	Part     dd.Collection[uint64, Part]
	PartSupp dd.Collection[uint64, PartSupp] // keyed by part
	Orders   dd.Collection[uint64, Order]
	Items    dd.Collection[uint64, LineItem] // keyed by order
}

// NewInputs creates the relation inputs in a dataflow graph.
func NewInputs(g *timely.Graph) (*Inputs, *Collections) {
	in := &Inputs{}
	c := &Collections{}
	in.Supplier, c.Supplier = dd.NewInput[uint64, Supplier](g)
	in.Customer, c.Customer = dd.NewInput[uint64, Customer](g)
	in.Part, c.Part = dd.NewInput[uint64, Part](g)
	in.PartSupp, c.PartSupp = dd.NewInput[uint64, PartSupp](g)
	in.Orders, c.Orders = dd.NewInput[uint64, Order](g)
	in.Items, c.Items = dd.NewInput[uint64, LineItem](g)
	return in, c
}

// LoadStatic sends every relation except orders and lineitems (those two are
// typically streamed by the benchmarks), each at its own input's current
// epoch. A relation the dataflow does not read is never built.
func (in *Inputs) LoadStatic(d *Data) {
	load(in.Supplier, d.Suppliers, func(r Supplier) uint64 { return r.SuppKey })
	load(in.Customer, d.Customers, func(r Customer) uint64 { return r.CustKey })
	load(in.Part, d.Parts, func(r Part) uint64 { return r.PartKey })
	load(in.PartSupp, d.PartSupps, func(r PartSupp) uint64 { return r.PartKey })
}

// LoadOrders sends a range [lo, hi) of orders plus their lineitems, found by
// binary search (order i has key i+1): a call costs the range it sends, not a
// pass over every lineitem.
func (in *Inputs) LoadOrders(d *Data, lo, hi int) {
	hi = min(hi, len(d.Orders))
	load(in.Orders, d.Orders[lo:hi], func(r Order) uint64 { return r.OrderKey })
	load(in.Items, d.Items[d.itemsFrom(uint64(lo+1)):d.itemsFrom(uint64(hi+1))],
		func(r LineItem) uint64 { return r.OrderKey })
}

// load sends rows as insertions at the input's current epoch, built into a
// slice of exactly their length. An input no operator reads would drop
// them, so for one of those nothing is built at all.
func load[V any](in *dd.InputCollection[uint64, V], rows []V, key func(V) uint64) {
	if !in.H.Connected() {
		return
	}
	t := lattice.Ts(in.Epoch())
	upds := make([]core.Update[uint64, V], len(rows))
	for i, r := range rows {
		upds[i] = core.Update[uint64, V]{Key: key(r), Val: r, Time: t, Diff: 1}
	}
	in.SendSlice(upds)
}

// AdvanceAll moves every handle to the given epoch.
func (in *Inputs) AdvanceAll(epoch uint64) {
	in.Supplier.AdvanceTo(epoch)
	in.Customer.AdvanceTo(epoch)
	in.Part.AdvanceTo(epoch)
	in.PartSupp.AdvanceTo(epoch)
	in.Orders.AdvanceTo(epoch)
	in.Items.AdvanceTo(epoch)
}

// CloseAll retires every handle.
func (in *Inputs) CloseAll() {
	in.Supplier.Close()
	in.Customer.Close()
	in.Part.Close()
	in.PartSupp.Close()
	in.Orders.Close()
	in.Items.Close()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sumBy is the workhorse grouped aggregation: it maps each record to a group
// key and an addend vector, then maintains per-group sums (exact integers).
func sumBy[K0 comparable, V any](c dd.Collection[K0, V],
	f func(K0, V) (uint64, Vals)) dd.Collection[uint64, Vals] {

	mapped := dd.Map(c, f)
	return dd.Sum(mapped, FnOut(), FnOut(), "sumBy",
		func(acc *Vals, v Vals, d core.Diff) {
			for i := range acc {
				acc[i] += v[i] * d
			}
		})
}

// itemsFrom returns the index of the first lineitem whose order key is at
// least orderKey: items are generated grouped by order, in order-key order.
func (d *Data) itemsFrom(orderKey uint64) int {
	return sort.Search(len(d.Items), func(i int) bool { return d.Items[i].OrderKey >= orderKey })
}

// itemsOf returns the lineitems of one order (shared by oracles).
func (d *Data) itemsOf(orderKey uint64) []LineItem {
	return d.Items[d.itemsFrom(orderKey):d.itemsFrom(orderKey+1)]
}
