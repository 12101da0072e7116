#include "tensor/fusion.h"

#include <utility>

#include "base/check.h"
#include "tensor/kernels.h"

namespace adasum {

std::vector<std::vector<std::size_t>> make_fusion_groups(
    const std::vector<const Tensor*>& tensors, std::size_t threshold_bytes) {
  ADASUM_CHECK_GT(threshold_bytes, 0u);
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> current;
  std::size_t current_bytes = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::size_t bytes = tensors[i]->nbytes();
    if (!current.empty() && current_bytes + bytes > threshold_bytes) {
      groups.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
    current.push_back(i);
    current_bytes += bytes;
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

FusedTensor fuse(const std::vector<const Tensor*>& tensors,
                 const std::vector<std::string>* names) {
  FusionBuffer buffer;
  return std::move(buffer.pack(tensors, names));
}

// Does the existing boundary table already describe these tensors? Default
// names are remembered rather than re-formatted, so an unnamed check
// compares offsets and counts only.
bool FusionBuffer::table_matches(const std::vector<const Tensor*>& tensors,
                                 const std::vector<std::string>* names) const {
  const std::vector<TensorSlice>& slices = fused_.slices;
  if (slices.size() != tensors.size()) return false;
  if (names == nullptr && !default_names_) return false;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const TensorSlice& s = slices[i];
    if (s.offset != offset || s.count != tensors[i]->size()) return false;
    if (names != nullptr && s.name != (*names)[i]) return false;
    offset += s.count;
  }
  return true;
}

FusedTensor& FusionBuffer::layout(const std::vector<const Tensor*>& tensors,
                                  const std::vector<std::string>* names) {
  ADASUM_CHECK(!tensors.empty());
  const DType dtype = tensors[0]->dtype();
  std::size_t total = 0;
  for (const Tensor* t : tensors) {
    ADASUM_CHECK_MSG(t->dtype() == dtype,
                     "all tensors in a fusion group must share a dtype");
    total += t->size();
  }
  if (names != nullptr) ADASUM_CHECK_EQ(names->size(), tensors.size());
  ++stats_.packs;

  if (fused_.flat.size() == total && fused_.flat.dtype() == dtype &&
      fused_.flat.size() > 0) {
    ++stats_.buffer_reuses;
  } else {
    fused_.flat = Tensor({total}, dtype);
  }

  if (table_matches(tensors, names)) {
    ++stats_.table_reuses;
    return fused_;
  }
  fused_.slices.clear();
  fused_.slices.reserve(tensors.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    fused_.slices.push_back(TensorSlice{
        names != nullptr ? (*names)[i] : "t" + std::to_string(i), offset,
        tensors[i]->size()});
    offset += tensors[i]->size();
  }
  default_names_ = names == nullptr;
  return fused_;
}

FusedTensor& FusionBuffer::pack(const std::vector<const Tensor*>& tensors,
                                const std::vector<std::string>* names) {
  FusedTensor& fused = layout(tensors, names);
  const DType dtype = fused.flat.dtype();
  const std::size_t elem = dtype_size(dtype);
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const TensorSlice& s = fused.slices[i];
    kernels::copy_bytes(tensors[i]->data(), fused.flat.data() + s.offset * elem,
                        s.count, dtype);
  }
  return fused;
}

void FusionBuffer::unpack(const std::vector<Tensor*>& tensors) const {
  unfuse(fused_, tensors);
}

void unfuse(const FusedTensor& fused, const std::vector<Tensor*>& tensors) {
  ADASUM_CHECK_EQ(tensors.size(), fused.slices.size());
  const std::size_t elem = dtype_size(fused.flat.dtype());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    Tensor* t = tensors[i];
    const TensorSlice& s = fused.slices[i];
    ADASUM_CHECK_EQ(t->size(), s.count);
    ADASUM_CHECK_MSG(t->dtype() == fused.flat.dtype(),
                     "unfuse destination dtype mismatch");
    kernels::copy_bytes(fused.flat.data() + s.offset * elem, t->data(),
                        s.count, fused.flat.dtype());
  }
}

}  // namespace adasum
