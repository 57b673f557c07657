# Runs TOOL with ARGS (one space-separated string) and compares its
# stdout, then its stderr, with EXPECTED. Host-dependent values are
# masked before comparing, and the committed files hold them masked:
# cyclesPerSecond and wallMillis, and the sweep executor's
# sweep.pointMillis distribution except its sample count.
# On a difference the actual output is left in ACTUAL. With -DRECORD=1
# the masked output is written to EXPECTED instead. Paths in ARGS are
# relative to the directory ctest runs it in (tests/expected/<group>):
#
#   cd tests/expected/loadgen && cmake -DTOOL=<build>/tools/pva_loadgen \
#       -DARGS="--streams 4" -DEXPECTED=x.out -DRECORD=1 \
#       -P ../../tool_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
get_filename_component(tool_name ${TOOL} NAME)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool_name} ${ARGS} exited with ${rc}:\n${err}")
endif()

function(mask var text)
    string(REGEX REPLACE "(cyclesPerSecond|wallMillis)([\"=: ]+)[0-9.e+-]+"
           "\\1\\2X" text "${text}")
    string(REGEX REPLACE "(pointMillis\": {\"samples\": [0-9]+, )[^}]*"
           "\\1X" text "${text}")
    string(REGEX REPLACE "(pointMillis\\.(min|max|mean) )[0-9.e+-]+"
           "\\1X" text "${text}")
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
    message(FATAL_ERROR "${tool_name} ${ARGS}: output differs from "
        "${EXPECTED}; actual output in ${ACTUAL}")
endif()
