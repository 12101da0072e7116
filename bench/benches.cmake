set(ADASUM_BENCH_LIBS
  adasum_train
  adasum_optim
  adasum_data
  adasum_nn
  adasum_collectives
  adasum_core
  adasum_comm
  adasum_tensor
  adasum_base
)

# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY the bench binaries — the documented run loop is
# `for b in build/bench/*; do $b; done`.
function(adasum_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ADASUM_BENCH_LIBS} ${ARGN})
  # Lets a bench find repo files (scripts/known_shape_failures.txt) from any
  # working directory.
  target_compile_definitions(${name} PRIVATE
    BENCH_SOURCE_DIR="${CMAKE_SOURCE_DIR}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

adasum_add_bench(bench_fig1_orthogonality)
adasum_add_bench(bench_fig2_hessian_error)
adasum_add_bench(bench_fig4_allreduce_latency)
adasum_add_bench(bench_table4_bert_sys)
adasum_add_bench(bench_fig5_resnet_tta)
adasum_add_bench(bench_table1_partitioning)
adasum_add_bench(bench_micro_kernels benchmark::benchmark)
adasum_add_bench(bench_table3_bert_algo)
adasum_add_bench(bench_table2_tcp_localsteps)
adasum_add_bench(bench_fig6_lenet_scaling)
adasum_add_bench(bench_ablation_reduction)
adasum_add_bench(bench_ablation_compression)
adasum_add_bench(bench_async_baselines)
adasum_add_bench(bench_pipeline)
adasum_add_bench(bench_compress)
adasum_add_bench(bench_scaleout)
adasum_add_bench(bench_parallel)
