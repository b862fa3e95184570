// Small-buffer sequence: the first N elements live inline, longer sequences
// spill to one heap vector.
//
// The 100k-class epoch holds one sub-class itinerary per sub-class and one
// instance list per host visit; almost all of them are a handful of
// elements long (DESIGN.md §3), so a std::vector each would cost one heap
// block per itinerary and per visit, allocated by the assigner and freed
// again when the epoch or the data plane drops them. InlineVector keeps
// those short sequences inside their owner.
//
// Representation: `size_ <= N` means the elements are inline_[0, size_);
// past N every element lives in `spill_` (the inline slots are moved out
// when the sequence spills and are never read again). Copies and moves
// preserve the representation; a moved-from InlineVector is empty.
//
// Only the std::vector subset the tree uses is provided. There is
// deliberately no converting constructor from std::vector: call sites that
// hold one push its elements.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace apple::common {

template <typename T, std::size_t N>
class InlineVector {
  static_assert(N > 0, "InlineVector needs at least one inline slot");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  static constexpr std::size_t kInlineCapacity = N;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> items) {
    for (const T& item : items) push_back(item);
  }

  InlineVector(const InlineVector&) = default;
  InlineVector& operator=(const InlineVector&) = default;
  InlineVector(InlineVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : inline_(std::move(other.inline_)),
        spill_(std::move(other.spill_)),
        size_(std::exchange(other.size_, 0)) {
    other.spill_.clear();
  }
  InlineVector& operator=(InlineVector&& other) noexcept(
      std::is_nothrow_move_assignable_v<T>) {
    if (this != &other) {
      inline_ = std::move(other.inline_);
      spill_ = std::move(other.spill_);
      size_ = std::exchange(other.size_, 0);
      other.spill_.clear();
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() { return spilled() ? spill_.data() : inline_.data(); }
  iterator end() { return begin() + size_; }
  const_iterator begin() const {
    return spilled() ? spill_.data() : inline_.data();
  }
  const_iterator end() const { return begin() + size_; }

  // Indexing goes through the owning std::array / std::vector, so a build
  // with -D_GLIBCXX_ASSERTIONS bounds-checks it.
  T& operator[](std::size_t i) { return spilled() ? spill_[i] : inline_[i]; }
  const T& operator[](std::size_t i) const {
    return spilled() ? spill_[i] : inline_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& item) { emplace(T(item)); }
  void push_back(T&& item) { emplace(std::move(item)); }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  bool spilled() const { return size_ > N; }

  void emplace(T&& item) {
    if (size_ < N) {
      inline_[size_++] = std::move(item);
      return;
    }
    if (size_ == N) {
      // First spill: the inline elements move out to the heap, followed by
      // the new one; from here on spill_ holds the whole sequence.
      spill_.reserve(2 * N);
      spill_.assign(std::make_move_iterator(inline_.begin()),
                    std::make_move_iterator(inline_.end()));
    }
    spill_.push_back(std::move(item));
    ++size_;
  }

  std::array<T, N> inline_{};
  std::vector<T> spill_;
  std::size_t size_ = 0;
};

}  // namespace apple::common
