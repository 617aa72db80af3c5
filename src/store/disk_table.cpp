#include "store/disk_table.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/check.h"
#include "util/fnv1a.h"

namespace vela::store {
namespace {

constexpr char kMagic[8] = {'V', 'E', 'L', 'A', 'S', 'T', 'O', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 3 * sizeof(std::uint32_t);
constexpr std::size_t kSlotHeaderBytes = 3 * sizeof(std::uint32_t);

void store_u32(unsigned char* at, std::uint32_t v) {
  std::memcpy(at, &v, sizeof(std::uint32_t));
}

std::uint32_t load_u32(const unsigned char* at) {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof(std::uint32_t));
  return v;
}

}  // namespace

DiskTable::DiskTable(std::string path, bool remove_on_close)
    : path_(std::move(path)), remove_on_close_(remove_on_close) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  VELA_CHECK_MSG(fd_ >= 0, "cannot open store table " << path_);
  struct stat st{};
  VELA_CHECK(::fstat(fd_, &st) == 0);
  const auto existing = static_cast<std::size_t>(st.st_size);
  if (existing == 0) {
    // Fresh table: header only; slot geometry is fixed at the first write.
    VELA_CHECK(::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) == 0);
    map_file(kHeaderBytes);
    static_assert(std::is_trivially_copyable_v<decltype(kMagic)>);
    static_assert(sizeof(kMagic) == 8, "table magic is 8 raw bytes");
    std::memcpy(map_, kMagic, sizeof(kMagic));
    store_u32(map_ + 8, kVersion);
    store_u32(map_ + 12, 0);  // slot_bytes
    store_u32(map_ + 16, 0);  // capacity
    return;
  }
  VELA_CHECK_MSG(existing >= kHeaderBytes,
                 "store table " << path_ << " truncated below header");
  map_file(existing);
  VELA_CHECK_MSG(std::memcmp(map_, kMagic, sizeof(kMagic)) == 0,
                 "not a VELA store table: " << path_);
  VELA_CHECK_MSG(load_u32(map_ + 8) == kVersion,
                 "unsupported store table version " << load_u32(map_ + 8));
  slot_bytes_ = load_u32(map_ + 12);
  capacity_ = load_u32(map_ + 16);
  VELA_CHECK_MSG(existing >= kHeaderBytes + capacity_ * slot_bytes_,
                 "store table " << path_ << " truncated: header declares "
                                << capacity_ << " slots of " << slot_bytes_
                                << " bytes");
  for (std::uint32_t s = 0; s < capacity_; ++s) {
    if (load_u32(slot_base(s)) != 0) ++in_use_;
  }
}

DiskTable::~DiskTable() {
  if (map_ != nullptr) ::munmap(map_, mapped_bytes_);
  if (fd_ >= 0) ::close(fd_);
  if (remove_on_close_) ::unlink(path_.c_str());
}

void DiskTable::map_file(std::size_t bytes) {
  if (map_ != nullptr) {
    VELA_CHECK(::munmap(map_, mapped_bytes_) == 0);
    map_ = nullptr;
  }
  void* m =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  VELA_CHECK_MSG(m != MAP_FAILED, "mmap failed for store table " << path_);
  map_ = static_cast<unsigned char*>(m);
  mapped_bytes_ = bytes;
}

unsigned char* DiskTable::slot_base(std::uint32_t slot) const {
  return map_ + kHeaderBytes + static_cast<std::size_t>(slot) * slot_bytes_;
}

void DiskTable::grow(std::size_t min_capacity) {
  std::size_t next = std::max<std::size_t>(capacity_ * 2, 4);
  next = std::max(next, min_capacity);
  const std::size_t bytes = kHeaderBytes + next * slot_bytes_;
  VELA_CHECK(::ftruncate(fd_, static_cast<off_t>(bytes)) == 0);
  map_file(bytes);  // ftruncate zero-fills, so new slots read as free
  capacity_ = next;
  store_u32(map_ + 16, static_cast<std::uint32_t>(capacity_));
}

void DiskTable::reslot(std::size_t new_slot_bytes) {
  const std::size_t bytes = kHeaderBytes + capacity_ * new_slot_bytes;
  VELA_CHECK(::ftruncate(fd_, static_cast<off_t>(bytes)) == 0);
  map_file(bytes);
  // Spread the slots into the wider layout highest-first: slot s's new
  // offset is >= its old one and below slot s+1's new offset, so no source
  // region is overwritten before it moves. Slot indices are stable — the
  // pager's disk_slot handles stay valid across a reslot.
  for (std::size_t s = capacity_; s-- > 0;) {
    unsigned char* old_base = map_ + kHeaderBytes + s * slot_bytes_;
    unsigned char* new_base = map_ + kHeaderBytes + s * new_slot_bytes;
    std::memmove(new_base, old_base, slot_bytes_);
    std::memset(new_base + slot_bytes_, 0, new_slot_bytes - slot_bytes_);
  }
  slot_bytes_ = new_slot_bytes;
  store_u32(map_ + 12, static_cast<std::uint32_t>(slot_bytes_));
}

std::uint32_t DiskTable::write(const unsigned char* data, std::size_t bytes) {
  if (slot_bytes_ == 0) {
    slot_bytes_ = kSlotHeaderBytes + bytes;
    store_u32(map_ + 12, static_cast<std::uint32_t>(slot_bytes_));
  }
  // Images grow over an expert's life (a freshly-installed adapter pages
  // out without gradients or moments; a trained one carries both), so the
  // first write's size is a floor, not an invariant — widen the slots when
  // a bigger image arrives.
  if (kSlotHeaderBytes + bytes > slot_bytes_) {
    reslot(kSlotHeaderBytes + bytes);
  }
  std::uint32_t slot = kNoSlot;
  for (std::uint32_t s = 0; s < capacity_; ++s) {
    if (load_u32(slot_base(s)) == 0) {
      slot = s;
      break;
    }
  }
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(capacity_);
    grow(capacity_ + 1);
  }
  unsigned char* base = slot_base(slot);
  store_u32(base + 4, static_cast<std::uint32_t>(bytes));
  store_u32(base + 8, util::fnv1a(data, bytes));
  // Opaque payload bytes; no struct layout. vela-lint: allow(wire-memcpy)
  std::memcpy(base + kSlotHeaderBytes, data, bytes);
  store_u32(base, 1);  // publish last: a torn write leaves the slot free
  ++in_use_;
  return slot;
}

std::vector<unsigned char> DiskTable::read(std::uint32_t slot) const {
  VELA_CHECK_MSG(slot < capacity_, "store table slot " << slot
                                                       << " out of range");
  const unsigned char* base = slot_base(slot);
  VELA_CHECK_MSG(load_u32(base) != 0, "store table slot " << slot
                                                          << " is free");
  const std::uint32_t bytes = load_u32(base + 4);
  VELA_CHECK_MSG(kSlotHeaderBytes + bytes <= slot_bytes_,
                 "store table slot " << slot << " declares " << bytes
                                     << " payload bytes in a " << slot_bytes_
                                     << "-byte slot (torn write?)");
  const std::uint32_t want = load_u32(base + 8);
  const std::uint32_t got = util::fnv1a(base + kSlotHeaderBytes, bytes);
  VELA_CHECK_MSG(got == want, "store table slot "
                                  << slot << " checksum mismatch (stored "
                                  << want << ", computed " << got
                                  << "): table is corrupt");
  return std::vector<unsigned char>(base + kSlotHeaderBytes,
                                    base + kSlotHeaderBytes + bytes);
}

void DiskTable::free_slot(std::uint32_t slot) {
  VELA_CHECK(slot < capacity_);
  unsigned char* base = slot_base(slot);
  VELA_CHECK_MSG(load_u32(base) != 0,
                 "double free of store table slot " << slot);
  store_u32(base, 0);
  --in_use_;
}

}  // namespace vela::store
