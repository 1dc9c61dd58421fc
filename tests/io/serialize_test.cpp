// Serialize/deserialize (paper §VII.B): round-trips, the size protocol,
// UDT payloads, and corruption detection.
#include <gtest/gtest.h>

#include "io/mmio.hpp"
#include "tests/grb_test_util.hpp"

namespace {

void put_varint(std::vector<uint8_t>* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<uint8_t>(v | 0x80));
  out->push_back(static_cast<uint8_t>(v));
}

// A hand-built payload that passes the checksum: the 14-byte header
// (magic, kind, type code, type size) of the real serialization `real`,
// then `dims` as u64s, then `body`, then the FNV-1a sum over all of it.
// Only the structural checks can reject it.
std::vector<char> forge(const std::vector<char>& real,
                        std::initializer_list<uint64_t> dims,
                        const std::vector<uint8_t>& body) {
  std::vector<char> out(real.begin(), real.begin() + 14);
  for (uint64_t d : dims) {
    const char* p = reinterpret_cast<const char*>(&d);
    out.insert(out.end(), p, p + 8);
  }
  out.insert(out.end(), body.begin(), body.end());
  uint64_t h = 1469598103934665603ull;
  for (char c : out) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  const char* p = reinterpret_cast<const char*>(&h);
  out.insert(out.end(), p, p + 8);
  return out;
}

// Index bytes (varints) followed by `nvals` FP64 values.
std::vector<uint8_t> entries(std::initializer_list<uint64_t> varints,
                             size_t nvals) {
  std::vector<uint8_t> body;
  for (uint64_t v : varints) put_varint(&body, v);
  body.resize(body.size() + nvals * sizeof(double), 0);
  return body;
}

TEST(SerializeTest, MatrixRoundTrip) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ref::Mat rm = testutil::random_mat(19, 27, 0.25, seed);
    GrB_Matrix a = testutil::make_matrix(rm);
    GrB_Index size = 0;
    ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
    std::vector<char> buf(size);
    GrB_Index written = size;
    ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
    EXPECT_EQ(written, size);
    GrB_Matrix back = nullptr;
    ASSERT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
              GrB_SUCCESS);
    EXPECT_MATRIX_EQ(back, rm);
    GrB_free(&a);
    GrB_free(&back);
  }
}

TEST(SerializeTest, VectorRoundTrip) {
  ref::Vec rv = testutil::random_vec(40, 0.3, 5);
  GrB_Vector v = testutil::make_vector(rv);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&size, v), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Vector_serialize(buf.data(), &written, v), GrB_SUCCESS);
  GrB_Vector back = nullptr;
  ASSERT_EQ(GrB_Vector_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  EXPECT_VECTOR_EQ(back, rv);
  GrB_free(&v);
  GrB_free(&back);
}

TEST(SerializeTest, EmptyContainers) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT32, 7, 3), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  GrB_Matrix back = nullptr;
  ASSERT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  GrB_Index nr, nc, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, back), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, back), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, back), GrB_SUCCESS);
  EXPECT_EQ(nr, 7u);
  EXPECT_EQ(nc, 3u);
  EXPECT_EQ(nv, 0u);
  GrB_free(&a);
  GrB_free(&back);
}

TEST(SerializeTest, PreservesType) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT16, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, int16_t{-7}, 2), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&size, v), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Vector_serialize(buf.data(), &written, v), GrB_SUCCESS);
  GrB_Vector back = nullptr;
  ASSERT_EQ(GrB_Vector_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  EXPECT_EQ(back->type(), grb::TypeInt16());
  int16_t out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, back, 2), GrB_SUCCESS);
  EXPECT_EQ(out, -7);
  // Deserializing with a mismatched explicit type is a domain error.
  GrB_Vector wrong = nullptr;
  EXPECT_EQ(GrB_Vector_deserialize(&wrong, GrB_FP64, buf.data(), written),
            GrB_DOMAIN_MISMATCH);
  GrB_free(&v);
  GrB_free(&back);
}

TEST(SerializeTest, UdtRequiresCallerType) {
  struct Payload {
    double x;
    int32_t tag;
  };
  GrB_Type t = nullptr;
  ASSERT_EQ(GrB_Type_new(&t, sizeof(Payload)), GrB_SUCCESS);
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, t, 2, 2), GrB_SUCCESS);
  Payload p{2.5, 7};
  ASSERT_EQ(GrB_Matrix_setElement_UDT(a, &p, t, 1, 0), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  // Without the type handle the payload is unreadable.
  GrB_Matrix back = nullptr;
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_NULL_POINTER);
  ASSERT_EQ(GrB_Matrix_deserialize(&back, t, buf.data(), written),
            GrB_SUCCESS);
  Payload out{0, 0};
  EXPECT_EQ(GrB_Matrix_extractElement_UDT(&out, t, back, 1, 0),
            GrB_SUCCESS);
  EXPECT_EQ(out.x, 2.5);
  EXPECT_EQ(out.tag, 7);
  GrB_free(&a);
  GrB_free(&back);
  GrB_free(&t);
}

TEST(SerializeTest, InsufficientBuffer) {
  ref::Mat rm = testutil::random_mat(10, 10, 0.5, 6);
  GrB_Matrix a = testutil::make_matrix(rm);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index too_small = size / 2;
  EXPECT_EQ(GrB_Matrix_serialize(buf.data(), &too_small, a),
            GrB_INSUFFICIENT_SPACE);
  GrB_free(&a);
}

TEST(SerializeTest, CorruptionIsDetected) {
  ref::Mat rm = testutil::random_mat(12, 12, 0.4, 7);
  GrB_Matrix a = testutil::make_matrix(rm);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  GrB_Matrix back = nullptr;
  // Flip a byte in the middle: checksum mismatch.
  buf[written / 2] ^= 0x5a;
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_INVALID_OBJECT);
  buf[written / 2] ^= 0x5a;
  // Truncation is also rejected.
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(),
                                   written - 9),
            GrB_INVALID_OBJECT);
  // A vector payload does not deserialize as a matrix.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index vsize = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&vsize, v), GrB_SUCCESS);
  std::vector<char> vbuf(vsize);
  GrB_Index vwritten = vsize;
  ASSERT_EQ(GrB_Vector_serialize(vbuf.data(), &vwritten, v), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, vbuf.data(), vwritten),
            GrB_INVALID_OBJECT);

  // Re-signed structural mutations of a 2x4 matrix: row 0 holds columns
  // {1, 2} (length 2, deltas 1 and 1), row 1 is empty.
  const auto mat = [&](std::initializer_list<uint64_t> dims,
                       const std::vector<uint8_t>& body) {
    std::vector<char> bytes = forge(buf, dims, body);
    GrB_Matrix m = nullptr;
    GrB_Info info =
        GrB_Matrix_deserialize(&m, GrB_NULL, bytes.data(), bytes.size());
    GrB_free(&m);
    return info;
  };
  EXPECT_EQ(mat({2, 4, 2}, entries({2, 1, 1, 0}, 2)), GrB_SUCCESS);
  // A zero delta after the first index repeats column 1.
  EXPECT_EQ(mat({2, 4, 2}, entries({2, 1, 0, 0}, 2)), GrB_INVALID_OBJECT);
  // A delta of 2^64 - 1 wraps column 1 back to 0.
  EXPECT_EQ(mat({2, 4, 2}, entries({2, 1, ~0ull, 0}, 2)),
            GrB_INVALID_OBJECT);
  // Headers that claim more rows or entries than the bytes can hold.
  EXPECT_EQ(mat({2, 4, uint64_t{1} << 60}, entries({0, 0}, 0)),
            GrB_INVALID_OBJECT);
  EXPECT_EQ(mat({uint64_t{1} << 60, 4, 0}, entries({}, 0)),
            GrB_INVALID_OBJECT);

  // The same for a 4-vector holding indices {1, 3}.
  const auto vec = [&](std::initializer_list<uint64_t> dims,
                       const std::vector<uint8_t>& body) {
    std::vector<char> bytes = forge(vbuf, dims, body);
    GrB_Vector w = nullptr;
    GrB_Info info =
        GrB_Vector_deserialize(&w, GrB_NULL, bytes.data(), bytes.size());
    GrB_free(&w);
    return info;
  };
  EXPECT_EQ(vec({4, 2}, entries({1, 2}, 2)), GrB_SUCCESS);
  EXPECT_EQ(vec({4, 2}, entries({1, 0}, 2)), GrB_INVALID_OBJECT);
  EXPECT_EQ(vec({4, 2}, entries({1, ~0ull}, 2)), GrB_INVALID_OBJECT);
  EXPECT_EQ(vec({uint64_t{1} << 60, uint64_t{1} << 59}, entries({}, 0)),
            GrB_INVALID_OBJECT);
  GrB_free(&a);
  GrB_free(&v);
}

TEST(SerializeTest, CompressionBeatsRawCsrOnClusteredIndices) {
  // The varint-delta format should use fewer bytes than the 8-byte-per-
  // index CSR export for a banded matrix — the substance behind the
  // paper's "can save space" claim (measured at scale in bench_m3).
  GrB_Matrix a = nullptr;
  const GrB_Index n = 256;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    for (GrB_Index d = 0; d < 4 && i + d < n; ++d)
      ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + d), GrB_SUCCESS);
  GrB_Index ser_size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&ser_size, a), GrB_SUCCESS);
  GrB_Index np, ni, nv;
  ASSERT_EQ(GrB_Matrix_exportSize(&np, &ni, &nv, GrB_CSR_MATRIX, a),
            GrB_SUCCESS);
  GrB_Index csr_bytes = np * 8 + ni * 8 + nv * 8;
  EXPECT_LT(ser_size, csr_bytes);
  GrB_free(&a);
}

TEST(MmioTest, FileRoundTrip) {
  ref::Mat rm = testutil::random_mat(14, 14, 0.3, 8);
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(grb::write_matrix_market(a, "mmio_test_tmp.mtx"),
            grb::Info::kSuccess);
  GrB_Matrix back = nullptr;
  ASSERT_EQ(grb::read_matrix_market(&back, "mmio_test_tmp.mtx", nullptr),
            grb::Info::kSuccess);
  EXPECT_MATRIX_EQ(back, rm);
  GrB_free(&a);
  GrB_free(&back);
  std::remove("mmio_test_tmp.mtx");
}

TEST(MmioTest, RejectsGarbage) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(grb::read_matrix_market(&a, "/nonexistent/file.mtx", nullptr),
            grb::Info::kInvalidValue);
}

}  // namespace
