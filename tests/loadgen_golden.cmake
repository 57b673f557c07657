# Runs pva_loadgen with ARGS (one space-separated string) and compares
# its stdout, then its stderr, with EXPECTED. The only host-dependent
# values, cyclesPerSecond and wallMillis, are masked before comparing;
# the committed files hold them masked.
# On a difference the actual output is left in ACTUAL. With -DRECORD=1
# the masked output is written to EXPECTED instead. Paths in ARGS are
# relative to tests/expected/loadgen, the directory ctest runs it in:
#
#   cd tests/expected/loadgen && cmake -DTOOL=<build>/tools/pva_loadgen \
#       -DARGS="--streams 4" -DEXPECTED=x.out -DRECORD=1 \
#       -P ../../loadgen_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pva_loadgen ${ARGS} exited with ${rc}:\n${err}")
endif()

function(mask var text)
    string(REGEX REPLACE "(cyclesPerSecond|wallMillis)([\"=: ]+)[0-9.e+-]+"
           "\\1\\2X" text "${text}")
    set(${var} "${text}" PARENT_SCOPE)
endfunction()

mask(got "${out}--- stderr ---\n${err}")
if(RECORD)
    file(WRITE ${EXPECTED} "${got}")
    return()
endif()
file(READ ${EXPECTED} want)
if(NOT got STREQUAL want)
    file(WRITE ${ACTUAL} "${got}")
    message(FATAL_ERROR "pva_loadgen ${ARGS}: output differs from "
        "${EXPECTED}; actual output in ${ACTUAL}")
endif()
