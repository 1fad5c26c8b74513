// Byte-oriented serialization for messages and key-value payloads.
//
// ByteWriter appends POD values, strings and vectors to a growable buffer;
// ByteReader consumes them in the same order. The format is the machine's
// native layout (this is in-process message passing, not a wire format).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace mrbio {

class ByteWriter {
 public:
  ByteWriter() = default;

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "put() requires a POD type");
    append(&value, sizeof(T));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    put<std::uint64_t>(bytes.size());
    append(bytes.data(), bytes.size());
  }

  void put_string(std::string_view s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "put_vector() requires POD elements");
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  /// Raw append without a length prefix (caller manages framing).
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>, "get() requires a POD type");
    T value;
    take(&value, sizeof(T));
    return value;
  }

  std::vector<std::byte> get_bytes() {
    const auto n = get<std::uint64_t>();
    check_avail(n);  // before allocating: a corrupt length must not OOM
    std::vector<std::byte> out(n);
    take(out.data(), n);
    return out;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    check_avail(n);
    std::string out(n, '\0');
    take(out.data(), n);
    return out;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>, "get_vector() requires POD elements");
    const auto n = get<std::uint64_t>();
    // Divide instead of multiplying: n * sizeof(T) could wrap for a
    // corrupt length and sneak past the bounds check.
    MRBIO_CHECK(n <= (data_.size() - pos_) / sizeof(T), "ByteReader underflow at offset ",
                pos_, ": need ", n, " elements of ", sizeof(T), " bytes");
    std::vector<T> out(n);
    take(out.data(), n * sizeof(T));
    return out;
  }

  /// Returns a view of the next `n` bytes without copying and advances.
  /// The span references the reader's underlying buffer.
  std::span<const std::byte> raw(std::size_t n) {
    MRBIO_CHECK(pos_ + n <= data_.size(), "ByteReader::raw underflow: need ", n, " have ",
                data_.size() - pos_);
    const std::span<const std::byte> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Current read offset — error messages name the exact byte position.
  std::size_t position() const { return pos_; }

 private:
  void check_avail(std::size_t n) const {
    MRBIO_CHECK(n <= data_.size() - pos_, "ByteReader underflow at offset ", pos_,
                ": need ", n, " have ", data_.size() - pos_);
  }

  void take(void* out, std::size_t n) {
    check_avail(n);
    if (n == 0) return;  // an empty vector's data() may be null: memcpy(null, _, 0) is UB
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace mrbio
