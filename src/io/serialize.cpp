#include "io/serialize.hpp"

namespace grb {
namespace {

constexpr uint32_t kMagic = 0x32425247;  // "GRB2"
constexpr uint8_t kKindMatrix = 1;
constexpr uint8_t kKindVector = 2;

// --- primitive writers/readers ---------------------------------------------

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(uint32_t v) { raw(&v, 4); }
  void u64(uint64_t v) { raw(&v, 8); }
  void raw(const void* p, size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void varint(uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<uint8_t>(v));
  }
  const std::vector<std::byte>& data() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  Reader(const void* p, size_t n)
      : p_(static_cast<const std::byte*>(p)), n_(n) {}

  bool u8(uint8_t* v) {
    if (pos_ + 1 > n_) return false;
    *v = static_cast<uint8_t>(p_[pos_++]);
    return true;
  }
  bool u32(uint32_t* v) { return raw(v, 4); }
  bool u64(uint64_t* v) { return raw(v, 8); }
  bool raw(void* out, size_t n) {
    if (pos_ + n > n_) return false;
    if (n > 0) std::memcpy(out, p_ + pos_, n);
    pos_ += n;
    return true;
  }
  const void* peek(size_t n) const { return pos_ + n <= n_ ? p_ + pos_ : nullptr; }
  bool skip(size_t n) {
    if (pos_ + n > n_) return false;
    pos_ += n;
    return true;
  }
  bool varint(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    for (;;) {
      uint8_t b;
      if (!u8(&b) || shift > 63) return false;
      out |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    *v = out;
    return true;
  }
  size_t pos() const { return pos_; }
  size_t left() const { return n_ - pos_; }

 private:
  const std::byte* p_;
  size_t n_;
  size_t pos_ = 0;
};

uint64_t fnv1a(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::byte> encode_matrix(const MatrixData& m) {
  Writer w;
  w.u32(kMagic);
  w.u8(kKindMatrix);
  w.u8(static_cast<uint8_t>(m.type->code()));
  w.u64(m.type->size());
  w.u64(m.nrows);
  w.u64(m.ncols);
  w.u64(m.nvals());
  for (Index r = 0; r < m.nrows; ++r) {
    size_t lo = m.ptr[r], hi = m.ptr[r + 1];
    w.varint(hi - lo);
    Index prev = 0;
    for (size_t k = lo; k < hi; ++k) {
      w.varint(m.col[k] - prev);  // strictly increasing within a row
      prev = m.col[k];
    }
  }
  w.raw(m.vals.data(), m.vals.byte_size());
  Writer out;
  out.raw(w.data().data(), w.data().size());
  out.u64(fnv1a(w.data().data(), w.data().size()));
  return out.data();
}

std::vector<std::byte> encode_vector(const VectorData& v) {
  Writer w;
  w.u32(kMagic);
  w.u8(kKindVector);
  w.u8(static_cast<uint8_t>(v.type->code()));
  w.u64(v.type->size());
  w.u64(v.n);
  w.u64(v.nvals());
  Index prev = 0;
  for (size_t k = 0; k < v.ind.size(); ++k) {
    w.varint(v.ind[k] - prev);
    prev = v.ind[k];
  }
  w.raw(v.vals.data(), v.vals.byte_size());
  Writer out;
  out.raw(w.data().data(), w.data().size());
  out.u64(fnv1a(w.data().data(), w.data().size()));
  return out.data();
}

// Applies one index delta: the first index of a row (or vector) may be
// 0, every later delta must be positive (indices strictly increase), and
// the result must stay below `dim` — checked without forming prev+delta,
// which could wrap past 2^64.
bool next_index(Index* prev, uint64_t delta, bool first, Index dim) {
  if (!first && delta == 0) return false;
  if (delta >= dim - *prev) return false;
  *prev += delta;
  return true;
}

// Validates header + checksum; resolves the payload type.
Info open_payload(Reader* r, const void* buffer, Index size, uint8_t kind,
                  const Type* user_type, const Type** type_out) {
  if (buffer == nullptr) return Info::kNullPointer;
  if (size < 12) return Info::kInvalidObject;
  uint64_t stored_sum;
  std::memcpy(&stored_sum, static_cast<const std::byte*>(buffer) + size - 8,
              8);
  if (fnv1a(buffer, size - 8) != stored_sum) return Info::kInvalidObject;
  uint32_t magic;
  uint8_t k, tc;
  uint64_t tsize;
  if (!r->u32(&magic) || magic != kMagic) return Info::kInvalidObject;
  if (!r->u8(&k) || k != kind) return Info::kInvalidObject;
  if (!r->u8(&tc)) return Info::kInvalidObject;
  if (!r->u64(&tsize)) return Info::kInvalidObject;
  if (tc == static_cast<uint8_t>(TypeCode::kUdt)) {
    if (user_type == nullptr) return Info::kNullPointer;
    if (user_type->size() != tsize) return Info::kDomainMismatch;
    *type_out = user_type;
  } else {
    if (tc >= kNumBuiltinTypes) return Info::kInvalidObject;
    const Type* t = Type::builtin(static_cast<TypeCode>(tc));
    if (t == nullptr || t->size() != tsize) return Info::kInvalidObject;
    if (user_type != nullptr && user_type != t) return Info::kDomainMismatch;
    *type_out = t;
  }
  return Info::kSuccess;
}

}  // namespace

Info matrix_serialize_size(Index* size, const Matrix* a) {
  if (size == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  // Exact size via a dry encode: simple, and still cheaper than the
  // round-trip through a non-opaque format it is compared against.
  *size = static_cast<Index>(encode_matrix(*snap).size());
  return Info::kSuccess;
}

Info matrix_serialize(void* buffer, Index* size, const Matrix* a) {
  if (buffer == nullptr || size == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  auto bytes = encode_matrix(*snap);
  if (bytes.size() > *size) return Info::kInsufficientSpace;
  std::memcpy(buffer, bytes.data(), bytes.size());
  *size = static_cast<Index>(bytes.size());
  return Info::kSuccess;
}

Info matrix_deserialize(Matrix** a, const Type* type, const void* buffer,
                        Index size, Context* ctx) {
  if (a == nullptr) return Info::kNullPointer;
  Reader r(buffer, size - 8);
  const Type* t = nullptr;
  GRB_RETURN_IF_ERROR(open_payload(&r, buffer, size, kKindMatrix, type, &t));
  uint64_t nrows, ncols, nvals;
  if (!r.u64(&nrows) || !r.u64(&ncols) || !r.u64(&nvals))
    return Info::kInvalidObject;
  // Every row costs at least its length byte and every entry a delta
  // byte plus its value, so a header claiming more than the bytes left
  // is rejected before anything is sized from it.
  if (ncols > kIndexMax || nrows > r.left() ||
      nvals > (r.left() - nrows) / (1 + t->size()))
    return Info::kInvalidObject;
  auto data = std::make_shared<MatrixData>(t, nrows, ncols);
  data->col.reserve(nvals);
  for (Index row = 0; row < nrows; ++row) {
    uint64_t len;
    if (!r.varint(&len)) return Info::kInvalidObject;
    Index prev = 0;
    for (uint64_t k = 0; k < len; ++k) {
      uint64_t delta;
      if (!r.varint(&delta)) return Info::kInvalidObject;
      if (!next_index(&prev, delta, k == 0, ncols))
        return Info::kInvalidObject;
      data->col.push_back(prev);
    }
    data->ptr[row + 1] = data->col.size();
  }
  if (data->col.size() != nvals) return Info::kInvalidObject;
  data->vals.resize(nvals);
  if (!r.raw(data->vals.data(), nvals * t->size()))
    return Info::kInvalidObject;
  Matrix* out = nullptr;
  GRB_RETURN_IF_ERROR(Matrix::new_(&out, t, nrows, ncols, ctx));
  out->publish(std::move(data));
  *a = out;
  return Info::kSuccess;
}

Info vector_serialize_size(Index* size, const Vector* v) {
  if (size == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({v}));
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->snapshot(&snap));
  *size = static_cast<Index>(encode_vector(*snap).size());
  return Info::kSuccess;
}

Info vector_serialize(void* buffer, Index* size, const Vector* v) {
  if (buffer == nullptr || size == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({v}));
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->snapshot(&snap));
  auto bytes = encode_vector(*snap);
  if (bytes.size() > *size) return Info::kInsufficientSpace;
  std::memcpy(buffer, bytes.data(), bytes.size());
  *size = static_cast<Index>(bytes.size());
  return Info::kSuccess;
}

Info vector_deserialize(Vector** v, const Type* type, const void* buffer,
                        Index size, Context* ctx) {
  if (v == nullptr) return Info::kNullPointer;
  Reader r(buffer, size - 8);
  const Type* t = nullptr;
  GRB_RETURN_IF_ERROR(open_payload(&r, buffer, size, kKindVector, type, &t));
  uint64_t n, nvals;
  if (!r.u64(&n) || !r.u64(&nvals)) return Info::kInvalidObject;
  if (n > kIndexMax || nvals > n || nvals > r.left() / (1 + t->size()))
    return Info::kInvalidObject;
  auto data = std::make_shared<VectorData>(t, n);
  data->ind.reserve(nvals);
  Index prev = 0;
  for (uint64_t k = 0; k < nvals; ++k) {
    uint64_t delta;
    if (!r.varint(&delta)) return Info::kInvalidObject;
    if (!next_index(&prev, delta, k == 0, n)) return Info::kInvalidObject;
    data->ind.push_back(prev);
  }
  data->vals.resize(nvals);
  if (!r.raw(data->vals.data(), nvals * t->size()))
    return Info::kInvalidObject;
  Vector* out = nullptr;
  GRB_RETURN_IF_ERROR(Vector::new_(&out, t, n, ctx));
  out->publish(std::move(data));
  *v = out;
  return Info::kSuccess;
}

}  // namespace grb
