// A growable array of trivially copyable elements that never copies itself
// to grow and never value-initializes what it grows by.
//
// std::vector grows by allocating a larger buffer, copying the old one into
// it and freeing the old one, so for a moment both live side by side, and
// resize() zero-fills the new tail on the calling thread. The explorer's
// row and eater arrays grow once per BFS level to hundreds of megabytes;
// their copies and zero-fills were a sequential share of every level and
// the old buffer set the run's peak.
//
// GrowArray keeps its elements in one private anonymous mapping of whole
// pages and grows it with mremap(MREMAP_MAYMOVE): the kernel moves the page
// table entries, not the bytes, and a grown tail stays untouched until the
// caller writes it (grow() returns that tail uninitialized; the pages fault
// in on first write, zeroed by the kernel, so whichever thread writes a
// page first pays for it). Capacity doubles, and capacity that is never
// written is address space, not resident memory. Small arrays still take a
// whole page; the explorer's arrays are never small for long.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace gdp::common {

namespace detail {

/// A fresh private anonymous read-write mapping of `bytes` (a whole number
/// of pages). Throws std::bad_alloc when the kernel refuses it.
void* map_pages(std::size_t bytes);

/// Grows the mapping at `p` from `old_bytes` to `new_bytes` (both whole
/// pages), keeping its contents; the mapping may move. Throws
/// std::bad_alloc when the kernel refuses, leaving the old mapping intact.
void* remap_pages(void* p, std::size_t old_bytes, std::size_t new_bytes);

/// Releases a mapping made by map_pages / remap_pages.
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// `bytes` rounded up to whole pages (at least one).
std::size_t page_bytes(std::size_t bytes);

}  // namespace detail

template <class T>
class GrowArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "GrowArray moves its elements as bytes (mremap, memcpy)");

 public:
  GrowArray() = default;
  GrowArray(const T* first, std::size_t n) { append(first, first + n); }
  GrowArray(const GrowArray& other) : GrowArray(other.data(), other.size()) {}
  GrowArray(GrowArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  GrowArray& operator=(GrowArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(bytes_, other.bytes_);
    return *this;
  }
  ~GrowArray() {
    if (data_ != nullptr) detail::unmap_pages(data_, bytes_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return bytes_ / sizeof(T); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  /// Makes room for `n` elements in all; contents and size are unchanged.
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    const std::size_t want = std::max(n, 2 * capacity()) * sizeof(T);
    const std::size_t bytes = detail::page_bytes(want);
    data_ = static_cast<T*>(data_ == nullptr ? detail::map_pages(bytes)
                                             : detail::remap_pages(data_, bytes_, bytes));
    bytes_ = bytes;
  }

  /// Appends `n` elements left uninitialized and returns the first: the
  /// caller writes every one of them before reading any.
  T* grow(std::size_t n) {
    reserve(size_ + n);
    T* const first = data_ + size_;
    size_ += n;
    return first;
  }

  void push_back(const T& value) { *grow(1) = value; }

  void append(const T* first, const T* last) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    if (n > 0) std::memcpy(static_cast<void*>(grow(n)), first, n * sizeof(T));
  }

  /// Grows to `n` elements, the new ones set to `fill`, or shrinks to `n`.
  void resize(std::size_t n, const T& fill) {
    if (n > size_) {
      const std::size_t old = size_;
      T* const tail = grow(n - old);
      for (std::size_t i = 0; i < n - old; ++i) tail[i] = fill;
    }
    size_ = n;
  }

  /// Drops every element; the mapping (and its capacity) stays.
  void clear() { size_ = 0; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;  // the mapping's length, whole pages
};

}  // namespace gdp::common
