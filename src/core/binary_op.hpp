// GrB_BinaryOp: binary operators z = f(x, y) over GraphBLAS domains.
//
// Operators carry runtime type descriptors and a C-ABI function pointer
// (the representation the C API requires for user-defined operators).
// Predefined operators additionally carry an opcode so kernels can
// dispatch to statically typed runners (see ops/mxm.hpp), which is
// exactly the optimization the paper's Motivation section argues for.
#pragma once

#include <string>

#include "core/info.hpp"
#include "core/type.hpp"

namespace grb {

using BinaryFn = void (*)(void* z, const void* x, const void* y);

enum class BinOpCode : uint8_t {
  kCustom = 0,
  kFirst,
  kSecond,
  kOneb,
  kMin,
  kMax,
  kPlus,
  kMinus,
  kTimes,
  kDiv,
  kEq,
  kNe,
  kGt,
  kLt,
  kGe,
  kLe,
  kLor,
  kLand,
  kLxor,
  kLxnor,
  kBor,
  kBand,
  kBxor,
  kBxnor,
};

class BinaryOp {
 public:
  BinaryOp(const Type* ztype, const Type* xtype, const Type* ytype,
           BinaryFn fn, BinOpCode opcode, std::string name)
      : ztype_(ztype),
        xtype_(xtype),
        ytype_(ytype),
        fn_(fn),
        opcode_(opcode),
        name_(std::move(name)) {}

  const Type* ztype() const { return ztype_; }
  const Type* xtype() const { return xtype_; }
  const Type* ytype() const { return ytype_; }
  BinaryFn fn() const { return fn_; }
  BinOpCode opcode() const { return opcode_; }
  const std::string& name() const { return name_; }

  void apply(void* z, const void* x, const void* y) const { fn_(z, x, y); }

 private:
  const Type* ztype_;
  const Type* xtype_;
  const Type* ytype_;
  BinaryFn fn_;
  BinOpCode opcode_;
  std::string name_;
};

// Predefined operator lookup.  Returns nullptr when the (op, type) pair is
// not defined by the specification (e.g. bitwise ops on floats).
//
// Arithmetic ops (kFirst..kDiv) are T,T -> T for all 11 builtin types;
// comparisons (kEq..kLe) are T,T -> BOOL; logical ops (kLor..kLxnor) are
// BOOL only; bitwise ops (kBor..kBxnor) cover the 8 integer types.
//
// Domain conventions (documented, spec leaves some latitude):
//  * BOOL arithmetic: PLUS=LOR, TIMES=LAND, MIN=LAND, MAX=LOR, MINUS=LXOR,
//    DIV=FIRST, ONEB=true.
//  * Integer x/0 evaluates to 0 (no UB); float x/0 follows IEEE-754.
//  * Signed integer arithmetic wraps (computed in unsigned arithmetic).
const BinaryOp* get_binary_op(BinOpCode op, TypeCode type);

// Creates a user-defined binary operator.
Info binary_op_new(const BinaryOp** op, BinaryFn fn, const Type* ztype,
                   const Type* xtype, const Type* ytype,
                   std::string name = "user_binary_op");
Info binary_op_free(const BinaryOp* op);

// Writes the identity of the monoid <op, T> into `out` (whose size is
// type->size()).  Returns false when the op has no well-known identity.
bool monoid_identity_value(BinOpCode op, const Type* type, void* out);

// Writes the terminal (annihilator) value if one exists.
bool monoid_terminal_value(BinOpCode op, const Type* type, void* out);

// True when the op code is known to be associative and commutative for
// every domain it is defined on (candidates for predefined monoids).
bool op_is_monoid_candidate(BinOpCode op);

}  // namespace grb
