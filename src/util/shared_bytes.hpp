// Immutable, shared byte buffer for message bodies.
//
// A mail body is built once and then stored in an inbox, a sent folder,
// view caches and coherence payloads, and returned by every receive.
// SharedBytes makes copying a body a reference-count bump: the bytes live in
// one heap block behind a shared_ptr<const uint8_t> and are never written
// after the block is filled. assign() and clear() rebind this handle to a
// fresh block (or to none) and leave every other copy untouched.
//
// The read API is the const subset of std::vector<uint8_t>, so code that
// iterates, indexes or compares a body reads the same as before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace psf::util {

class SharedBytes {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using const_iterator = const std::uint8_t*;

  SharedBytes() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  SharedBytes(std::initializer_list<std::uint8_t> bytes) {
    assign(bytes.begin(), bytes.end());
  }
  // Adopts the vector's buffer without copying its bytes (one allocation
  // for the control block that owns the vector).
  // NOLINTNEXTLINE(google-explicit-constructor)
  SharedBytes(std::vector<std::uint8_t>&& bytes) {
    if (bytes.empty()) return;
    auto owner = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    const std::uint8_t* raw = owner->data();
    size_ = owner->size();
    data_ = std::shared_ptr<const std::uint8_t>(std::move(owner), raw);
  }

  SharedBytes& operator=(std::initializer_list<std::uint8_t> bytes) {
    assign(bytes.begin(), bytes.end());
    return *this;
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n == 0) {
      clear();
      return;
    }
    auto block = std::make_shared_for_overwrite<std::uint8_t[]>(n);
    std::copy(first, last, block.get());  // `first` may point into data_
    bind(std::move(block), n);
  }

  void assign(size_type n, std::uint8_t value) {
    if (n == 0) {
      clear();
      return;
    }
    auto block = std::make_shared_for_overwrite<std::uint8_t[]>(n);
    std::fill_n(block.get(), n, value);
    bind(std::move(block), n);
  }

  void clear() {
    data_.reset();
    size_ = 0;
  }

  const std::uint8_t* data() const { return data_.get(); }
  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return data_.get(); }
  const_iterator end() const { return data_.get() + size_; }
  std::uint8_t operator[](size_type i) const { return data_.get()[i]; }
  std::uint8_t front() const { return data_.get()[0]; }

 private:
  // Rebinds this handle to a freshly filled block; the bytes are read-only
  // from here on.
  void bind(std::shared_ptr<std::uint8_t[]> block, size_type n) {
    const std::uint8_t* raw = block.get();
    data_ = std::shared_ptr<const std::uint8_t>(std::move(block), raw);
    size_ = n;
  }

  std::shared_ptr<const std::uint8_t> data_;
  size_type size_ = 0;
};

}  // namespace psf::util
