#include "gdp/common/grow_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace gdp::common::detail {

namespace {

// ThreadSanitizer intercepts mmap and munmap, which reset its shadow state
// for the range, but not mremap: a mapping moved onto addresses an earlier
// mapping used would inherit that mapping's access history. Under it the
// arrays grow by map, copy, unmap instead.
#if defined(__SANITIZE_THREAD__)
constexpr bool kCopyToGrow = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kCopyToGrow = true;
#else
constexpr bool kCopyToGrow = false;
#endif
#else
constexpr bool kCopyToGrow = false;
#endif

}  // namespace

void* map_pages(std::size_t bytes) {
  // gdp-lint: allow(raw-mmap) — GrowArray's private anonymous storage: no file behind it, owned by one GrowArray and unmapped by its destructor
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void* remap_pages(void* p, std::size_t old_bytes, std::size_t new_bytes) {
  if constexpr (kCopyToGrow) {
    void* q = map_pages(new_bytes);
    std::memcpy(q, p, old_bytes);
    unmap_pages(p, old_bytes);
    return q;
  } else {
    // gdp-lint: allow(raw-mmap) — grows GrowArray's anonymous mapping in place of a copy; on failure the old mapping is untouched
    void* q = ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE);
    if (q == MAP_FAILED) throw std::bad_alloc();
    return q;
  }
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  ::munmap(p, bytes);  // gdp-lint: allow(raw-mmap) — releases GrowArray's own mapping
}

std::size_t page_bytes(std::size_t bytes) {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return bytes == 0 ? page : (bytes + page - 1) / page * page;
}

}  // namespace gdp::common::detail
