// Hand-written per-layer parameter inventories of the two published models
// the replay workloads stand in for. Nothing is downloaded: the shapes
// follow the architectures as published (torchvision ResNet-50 and BERT-Large
// as in Devlin et al., parameter order of their reference implementations).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct TensorShape {
  std::string name;
  std::vector<std::size_t> shape;
  std::size_t count() const;
};

// ResNet-50: 161 tensors, 25,557,032 parameters at divisor 1 (53 convs
// without bias, 53 batch norms with weight and bias, fc weight and bias).
// `width_divisor` divides every channel count and the class count (rounding
// up); the 3 input channels and the kernel sizes stay.
std::vector<TensorShape> resnet50_inventory(std::size_t width_divisor);

// BERT-Large (BertModel with pooler): 391 tensors, 335,141,888 parameters
// at divisor 1. `width_divisor` divides hidden size, FFN size, vocabulary and
// position count (rounding up); the 2 token types stay, as does the layer
// count, so the tiny-vector/huge-matrix mix is preserved.
std::vector<TensorShape> bert_large_inventory(std::size_t width_divisor);

std::size_t total_count(const std::vector<TensorShape>& inventory);

}  // namespace perfbench
