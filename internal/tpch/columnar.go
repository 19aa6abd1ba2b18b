package tpch

import "repro/internal/core"

// Columnar layouts for the relation structs: each type scatters into one
// uint64 word column per field (bools as 0/1, int64s reinterpreted), so
// arrangements of these relations store batches column-major — merges move
// word columns instead of memmoving 9–15-field structs, and comparisons read
// only the leading columns they need. Everything here is explicit per-field
// code, mirroring the less* orderings in inputs.go (lexicographic over the
// fields). Only customer, partsupp and lineitem are arranged whole today, so
// only they have a store factory below.

// colCmp is one step of a CmpCols comparison: which column to compare next
// and whether its words carry int64s.
type colCmp struct {
	col    int
	signed bool
}

// cmpByCols three-way compares value i of a against value j of b
// column-by-column in the given order, with early exit on the first
// differing column — for these relations the leading key column almost
// always decides.
func cmpByCols(a [][]uint64, i int, b [][]uint64, j int, order []colCmp) int {
	for _, o := range order {
		x, y := a[o.col][i], b[o.col][j]
		if x == y {
			continue
		}
		if o.signed {
			if int64(x) < int64(y) {
				return -1
			}
			return 1
		}
		if x < y {
			return -1
		}
		return 1
	}
	return 0
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Supplier columns: 0 SuppKey, 1 NationKey, 2 AcctBal, 3 Complaint, 4 NameCode.

func (Supplier) ColWidth() int { return 5 }

func (v Supplier) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.SuppKey, uint64(v.NationKey), uint64(v.AcctBal),
		b2w(v.Complaint), uint64(v.NameCode))
}

func (Supplier) FromWords(w []uint64) Supplier {
	return Supplier{
		SuppKey:   w[0],
		NationKey: int64(w[1]),
		AcctBal:   int64(w[2]),
		Complaint: w[3] != 0,
		NameCode:  int64(w[4]),
	}
}

var supplierOrder = []colCmp{{0, false}, {1, true}, {2, true}, {3, false}, {4, true}}

func (Supplier) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	return cmpByCols(a, i, b, j, supplierOrder)
}

// Customer columns: 0 CustKey, 1 NationKey, 2 AcctBal, 3 MktSegment, 4 Phone.

func (Customer) ColWidth() int { return 5 }

func (v Customer) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.CustKey, uint64(v.NationKey), uint64(v.AcctBal),
		uint64(v.MktSegment), uint64(v.Phone))
}

func (Customer) FromWords(w []uint64) Customer {
	return Customer{
		CustKey:    w[0],
		NationKey:  int64(w[1]),
		AcctBal:    int64(w[2]),
		MktSegment: int64(w[3]),
		Phone:      int64(w[4]),
	}
}

var customerOrder = []colCmp{{0, false}, {1, true}, {2, true}, {3, true}, {4, true}}

func (Customer) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	return cmpByCols(a, i, b, j, customerOrder)
}

// Part columns: 0 PartKey, 1 Brand, 2 TypeCode, 3 Size, 4 Container,
// 5 Color, 6 RetailPrice.

func (Part) ColWidth() int { return 7 }

func (v Part) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.PartKey, uint64(v.Brand), uint64(v.TypeCode),
		uint64(v.Size), uint64(v.Container), uint64(v.Color), uint64(v.RetailPrice))
}

func (Part) FromWords(w []uint64) Part {
	return Part{
		PartKey:     w[0],
		Brand:       int64(w[1]),
		TypeCode:    int64(w[2]),
		Size:        int64(w[3]),
		Container:   int64(w[4]),
		Color:       int64(w[5]),
		RetailPrice: int64(w[6]),
	}
}

var partOrder = []colCmp{{0, false}, {1, true}, {2, true}, {3, true}, {4, true}, {5, true}, {6, true}}

func (Part) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	return cmpByCols(a, i, b, j, partOrder)
}

// PartSupp columns: 0 PartKey, 1 SuppKey, 2 AvailQty, 3 SupplyCost.

func (PartSupp) ColWidth() int { return 4 }

func (v PartSupp) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.PartKey, v.SuppKey, uint64(v.AvailQty), uint64(v.SupplyCost))
}

func (PartSupp) FromWords(w []uint64) PartSupp {
	return PartSupp{
		PartKey:    w[0],
		SuppKey:    w[1],
		AvailQty:   int64(w[2]),
		SupplyCost: int64(w[3]),
	}
}

var partSuppOrder = []colCmp{{0, false}, {1, false}, {2, true}, {3, true}}

func (PartSupp) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	return cmpByCols(a, i, b, j, partSuppOrder)
}

// Order columns: 0 OrderKey, 1 CustKey, 2 Status, 3 TotalPrice, 4 OrderDate,
// 5 Priority, 6 ShipPriority, 7 SpecialRequest, 8 Clerk.

func (Order) ColWidth() int { return 9 }

func (v Order) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.OrderKey, v.CustKey, uint64(v.Status), uint64(v.TotalPrice),
		uint64(v.OrderDate), uint64(v.Priority), uint64(v.ShipPriority),
		b2w(v.SpecialRequest), uint64(v.Clerk))
}

func (Order) FromWords(w []uint64) Order {
	return Order{
		OrderKey:       w[0],
		CustKey:        w[1],
		Status:         int64(w[2]),
		TotalPrice:     int64(w[3]),
		OrderDate:      int64(w[4]),
		Priority:       int64(w[5]),
		ShipPriority:   int64(w[6]),
		SpecialRequest: w[7] != 0,
		Clerk:          int64(w[8]),
	}
}

var orderOrder = []colCmp{
	{0, false}, {1, false}, {2, true}, {3, true}, {4, true},
	{5, true}, {6, true}, {7, false}, {8, true},
}

func (Order) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	return cmpByCols(a, i, b, j, orderOrder)
}

// LineItem columns: 0 OrderKey, 1 PartKey, 2 SuppKey, 3 LineNumber,
// 4 Quantity, 5 ExtendedPrice, 6 Discount, 7 Tax, 8 ReturnFlag,
// 9 LineStatus, 10 ShipDate, 11 CommitDate, 12 ReceiptDate, 13 ShipInstruct,
// 14 ShipMode.

func (LineItem) ColWidth() int { return 15 }

func (v LineItem) AppendWords(dst []uint64) []uint64 {
	return append(dst, v.OrderKey, v.PartKey, v.SuppKey, uint64(v.LineNumber),
		uint64(v.Quantity), uint64(v.ExtendedPrice), uint64(v.Discount),
		uint64(v.Tax), uint64(v.ReturnFlag), uint64(v.LineStatus),
		uint64(v.ShipDate), uint64(v.CommitDate), uint64(v.ReceiptDate),
		uint64(v.ShipInstruct), uint64(v.ShipMode))
}

func (LineItem) FromWords(w []uint64) LineItem {
	return LineItem{
		OrderKey:      w[0],
		PartKey:       w[1],
		SuppKey:       w[2],
		LineNumber:    int64(w[3]),
		Quantity:      int64(w[4]),
		ExtendedPrice: int64(w[5]),
		Discount:      int64(w[6]),
		Tax:           int64(w[7]),
		ReturnFlag:    int64(w[8]),
		LineStatus:    int64(w[9]),
		ShipDate:      int64(w[10]),
		CommitDate:    int64(w[11]),
		ReceiptDate:   int64(w[12]),
		ShipInstruct:  int64(w[13]),
		ShipMode:      int64(w[14]),
	}
}

// CmpCols mirrors lessLineItem — OrderKey, LineNumber, then the remaining
// fields in declaration order — hand-unrolled: lineitem compares sit in the
// innermost loop of every merge of the widest relation, and the first one or
// two columns almost always decide.
func (LineItem) CmpCols(a [][]uint64, i int, b [][]uint64, j int) int {
	if x, y := a[0][i], b[0][j]; x != y { // OrderKey
		if x < y {
			return -1
		}
		return 1
	}
	if x, y := int64(a[3][i]), int64(b[3][j]); x != y { // LineNumber
		if x < y {
			return -1
		}
		return 1
	}
	if x, y := a[1][i], b[1][j]; x != y { // PartKey
		if x < y {
			return -1
		}
		return 1
	}
	if x, y := a[2][i], b[2][j]; x != y { // SuppKey
		if x < y {
			return -1
		}
		return 1
	}
	for _, c := range [10]int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
		if x, y := int64(a[c][i]), int64(b[c][j]); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	if x, y := int64(a[14][i]), int64(b[14][j]); x != y { // ShipMode
		if x < y {
			return -1
		}
		return 1
	}
	return 0
}

// Store factories, built once per process and shared by every Funcs value.
var (
	customerStore = core.NewColumnarStore[Customer]()
	partSuppStore = core.NewColumnarStore[PartSupp]()
	lineItemStore = core.NewColumnarStore[LineItem]()
)

// LineItemFuncs returns the lineitem arrangement Funcs with either the
// columnar (production default) or the row-major slice store — the benchable
// pair behind the wide-value arrange metric.
func LineItemFuncs(columnar bool) core.Funcs[uint64, LineItem] {
	f := fnU64T(lessLineItem)
	if columnar {
		f.NewStore = lineItemStore
	}
	return f
}
