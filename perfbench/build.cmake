# Build file of the benchmark's own C++ package. run.py configures the repo
# root with -DCMAKE_PROJECT_tgi_INCLUDE=<this file>, so the two helpers
# below build in the same tree as the tgi libraries and tools they drive,
# with the same warning, sanitizer and TGI_DTYPE flags (tgi_warnings).
# Target names resolve when the build is generated, after the root
# CMakeLists.txt has defined them; the language standard is set here
# because this file is read before the root sets CMAKE_CXX_STANDARD.

# The closed-loop request client: spawns each request through
# util::Subprocess and reports its wall time, CPU time and peak RSS.
add_executable(perfbench_loop ${CMAKE_CURRENT_LIST_DIR}/loop.cpp)
target_link_libraries(perfbench_loop PRIVATE tgi_util tgi_warnings)

# The traced run: times calls into each module's public functions.
add_executable(perfbench_trace ${CMAKE_CURRENT_LIST_DIR}/layer_trace.cpp)
target_link_libraries(perfbench_trace
  PRIVATE tgi_serve tgi_harness tgi_core tgi_kernels tgi_sim tgi_power
          tgi_util Threads::Threads tgi_warnings)

set_target_properties(perfbench_loop perfbench_trace PROPERTIES
  CXX_STANDARD 20 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
