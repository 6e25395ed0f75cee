// A std::vector whose resize leaves trivially constructible elements
// unwritten.
//
// std::vector<T>::resize(n) value-initialises: for a double that is a zero
// written by the thread that calls resize, which therefore first-touches
// (and, on a NUMA host, places) every page of the buffer. A set-up pass that
// fills a large buffer in parallel sizes it as an UninitVector on the
// calling thread instead, so the first write to each page happens in the
// parallel pass. Every element must be written before it is read.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hemo {

/// std::allocator whose argument-free construct() default-initialises, a
/// no-op for trivially default-constructible element types.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  // The member names allocator_traits looks up.
  template <typename U>
  struct rebind {  // NOLINT(readability-identifier-naming)
    using other =  // NOLINT(readability-identifier-naming)
        DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Vector storage whose resize(n) and (n) constructor leave new trivially
/// constructible elements unwritten; resize(n, value) and assign still write.
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace hemo
