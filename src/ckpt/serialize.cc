#include "ckpt/serialize.h"

#include <cstring>

namespace darec::ckpt {

void ByteWriter::PutRaw(const void* data, size_t size) {
  // An empty vector or matrix hands over a null pointer; passing it on is
  // undefined behaviour even for zero bytes.
  if (size == 0) return;
  buffer_.append(static_cast<const char*>(data), size);
}

void ByteWriter::PutBytes(std::string_view value) {
  buffer_.append(value.data(), value.size());
}

void ByteWriter::PutString(std::string_view value) {
  PutU64(value.size());
  buffer_.append(value.data(), value.size());
}

void ByteWriter::PutMatrix(const tensor::Matrix& value) {
  PutI64(value.rows());
  PutI64(value.cols());
  PutRaw(value.data(), sizeof(float) * static_cast<size_t>(value.size()));
}

void ByteWriter::PutI64Vector(const std::vector<int64_t>& value) {
  PutU64(value.size());
  PutRaw(value.data(), sizeof(int64_t) * value.size());
}

void ByteWriter::PutF64Vector(const std::vector<double>& value) {
  PutU64(value.size());
  PutRaw(value.data(), sizeof(double) * value.size());
}

core::Status ByteReader::Need(size_t size) const {
  if (remaining() < size) {
    return core::Status::InvalidArgument(
        "truncated payload: need " + std::to_string(size) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  return core::Status::Ok();
}

void ByteReader::GetRaw(void* out, size_t size) {
  // memcpy with a null destination (an empty vector's data()) is undefined
  // behaviour even for zero bytes.
  if (size == 0) return;
  std::memcpy(out, data_.data() + pos_, size);
  pos_ += size;
}

#define DAREC_DEFINE_GET(name, type)                  \
  core::StatusOr<type> ByteReader::name() {           \
    DARE_RETURN_IF_ERROR(Need(sizeof(type)));         \
    type value;                                       \
    GetRaw(&value, sizeof(type));                     \
    return value;                                     \
  }

DAREC_DEFINE_GET(GetU8, uint8_t)
DAREC_DEFINE_GET(GetU32, uint32_t)
DAREC_DEFINE_GET(GetU64, uint64_t)
DAREC_DEFINE_GET(GetI64, int64_t)
DAREC_DEFINE_GET(GetF32, float)
DAREC_DEFINE_GET(GetF64, double)

#undef DAREC_DEFINE_GET

core::StatusOr<std::string> ByteReader::GetBytes(size_t size) {
  DARE_RETURN_IF_ERROR(Need(size));
  std::string value(data_.substr(pos_, size));
  pos_ += size;
  return value;
}

core::StatusOr<std::string> ByteReader::GetString() {
  DARE_ASSIGN_OR_RETURN(uint64_t size, GetU64());
  DARE_RETURN_IF_ERROR(Need(size));
  std::string value(data_.substr(pos_, size));
  pos_ += size;
  return value;
}

core::StatusOr<tensor::Matrix> ByteReader::GetMatrix() {
  DARE_ASSIGN_OR_RETURN(int64_t rows, GetI64());
  DARE_ASSIGN_OR_RETURN(int64_t cols, GetI64());
  if (rows < 0 || cols < 0 ||
      (cols > 0 && rows > static_cast<int64_t>(remaining() / sizeof(float)) / cols)) {
    return core::Status::InvalidArgument("implausible matrix dims " +
                                         std::to_string(rows) + "x" +
                                         std::to_string(cols));
  }
  tensor::Matrix value(rows, cols);
  GetRaw(value.data(), sizeof(float) * static_cast<size_t>(value.size()));
  return value;
}

core::StatusOr<std::vector<int64_t>> ByteReader::GetI64Vector() {
  DARE_ASSIGN_OR_RETURN(uint64_t size, GetU64());
  if (size > remaining() / sizeof(int64_t)) {
    return core::Status::InvalidArgument("implausible vector size " +
                                         std::to_string(size));
  }
  std::vector<int64_t> value(size);
  GetRaw(value.data(), sizeof(int64_t) * size);
  return value;
}

core::StatusOr<std::vector<double>> ByteReader::GetF64Vector() {
  DARE_ASSIGN_OR_RETURN(uint64_t size, GetU64());
  if (size > remaining() / sizeof(double)) {
    return core::Status::InvalidArgument("implausible vector size " +
                                         std::to_string(size));
  }
  std::vector<double> value(size);
  GetRaw(value.data(), sizeof(double) * size);
  return value;
}

core::Status ByteReader::ExpectEnd() const {
  if (!AtEnd()) {
    return core::Status::InvalidArgument(std::to_string(remaining()) +
                                         " trailing bytes after payload");
  }
  return core::Status::Ok();
}

}  // namespace darec::ckpt
