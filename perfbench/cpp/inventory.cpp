#include "inventory.h"

#include <string>

namespace perfbench {

namespace {

std::size_t div_up(std::size_t x, std::size_t d) { return (x + d - 1) / d; }

void add(std::vector<TensorShape>& inv, std::string name,
         std::vector<std::size_t> shape) {
  inv.push_back({std::move(name), std::move(shape)});
}

void add_affine(std::vector<TensorShape>& inv, const std::string& name,
            std::size_t c) {
  add(inv, name + ".weight", {c});
  add(inv, name + ".bias", {c});
}

}  // namespace

std::size_t TensorShape::count() const {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::size_t total_count(const std::vector<TensorShape>& inventory) {
  std::size_t n = 0;
  for (const TensorShape& t : inventory) n += t.count();
  return n;
}

std::vector<TensorShape> resnet50_inventory(std::size_t d) {
  std::vector<TensorShape> inv;
  const std::size_t stem = div_up(64, d);
  add(inv, "conv1.weight", {stem, 3, 7, 7});
  add_affine(inv, "bn1", stem);
  const int blocks[4] = {3, 4, 6, 3};
  const std::size_t planes[4] = {64, 128, 256, 512};
  std::size_t in = stem;
  for (int l = 0; l < 4; ++l) {
    const std::size_t p = div_up(planes[l], d);
    const std::size_t out = div_up(planes[l] * 4, d);
    for (int b = 0; b < blocks[l]; ++b) {
      const std::string pre =
          "layer" + std::to_string(l + 1) + "." + std::to_string(b) + ".";
      add(inv, pre + "conv1.weight", {p, in, 1, 1});
      add_affine(inv, pre + "bn1", p);
      add(inv, pre + "conv2.weight", {p, p, 3, 3});
      add_affine(inv, pre + "bn2", p);
      add(inv, pre + "conv3.weight", {out, p, 1, 1});
      add_affine(inv, pre + "bn3", out);
      if (b == 0) {
        add(inv, pre + "downsample.0.weight", {out, in, 1, 1});
        add_affine(inv, pre + "downsample.1", out);
      }
      in = out;
    }
  }
  const std::size_t classes = div_up(1000, d);
  add(inv, "fc.weight", {classes, in});
  add(inv, "fc.bias", {classes});
  return inv;
}

std::vector<TensorShape> bert_large_inventory(std::size_t d) {
  std::vector<TensorShape> inv;
  const std::size_t h = div_up(1024, d);
  const std::size_t f = div_up(4096, d);
  add(inv, "embeddings.word_embeddings.weight", {div_up(30522, d), h});
  add(inv, "embeddings.position_embeddings.weight", {div_up(512, d), h});
  add(inv, "embeddings.token_type_embeddings.weight", {2, h});
  add_affine(inv, "embeddings.LayerNorm", h);
  for (int l = 0; l < 24; ++l) {
    const std::string pre = "encoder.layer." + std::to_string(l) + ".";
    for (const char* qkv : {"query", "key", "value"}) {
      add(inv, pre + "attention.self." + qkv + ".weight", {h, h});
      add(inv, pre + "attention.self." + qkv + ".bias", {h});
    }
    add(inv, pre + "attention.output.dense.weight", {h, h});
    add(inv, pre + "attention.output.dense.bias", {h});
    add_affine(inv, pre + "attention.output.LayerNorm", h);
    add(inv, pre + "intermediate.dense.weight", {f, h});
    add(inv, pre + "intermediate.dense.bias", {f});
    add(inv, pre + "output.dense.weight", {h, f});
    add(inv, pre + "output.dense.bias", {h});
    add_affine(inv, pre + "output.LayerNorm", h);
  }
  add(inv, "pooler.dense.weight", {h, h});
  add(inv, "pooler.dense.bias", {h});
  return inv;
}

}  // namespace perfbench
